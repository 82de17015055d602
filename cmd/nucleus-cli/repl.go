package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"

	"nucleus/internal/replica"
)

// runRepl handles the `repl` subcommand family: fleet operations
// against a node's /replication endpoints (docs/REPLICATION.md).
//
//	nucleus-cli repl status  -server http://replica:8081
//	nucleus-cli repl pull    -server http://replica:8081
//	nucleus-cli repl promote -server http://replica:8081 -generation 2
//	nucleus-cli repl repoint -server http://replica:8081 -primary http://new:8080 -generation 2
//
// `status` is read-only; the rest are the manual steps of the promotion
// runbook, for when no nucleus-router is driving failover.
func runRepl(args []string, w io.Writer) error {
	const usage = "usage: nucleus-cli repl <status|pull|promote|repoint> [flags]"
	if len(args) == 0 {
		return fmt.Errorf(usage)
	}
	verb := args[0]
	fs := flag.NewFlagSet("nucleus-cli repl "+verb, flag.ContinueOnError)
	var (
		server     = fs.String("server", "http://localhost:8080", "nucleusd base URL")
		generation = fs.Uint64("generation", 0, "cluster generation (promote: required; repoint: optional)")
		primary    = fs.String("primary", "", "new primary base URL (repoint)")
	)
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	base := strings.TrimRight(*server, "/")

	switch verb {
	case "status":
		return replStatus(base, w)
	case "pull":
		return replPost(base, "/replication/pull", nil, w)
	case "promote":
		if *generation == 0 {
			return fmt.Errorf("repl promote: -generation is required and must exceed the node's current generation")
		}
		return replPost(base, "/replication/promote", map[string]any{"generation": *generation}, w)
	case "repoint":
		if *primary == "" {
			return fmt.Errorf("repl repoint: -primary is required")
		}
		body := map[string]any{"primary": strings.TrimRight(*primary, "/")}
		if *generation > 0 {
			body["generation"] = *generation
		}
		return replPost(base, "/replication/repoint", body, w)
	default:
		return fmt.Errorf(usage)
	}
}

func replStatus(base string, w io.Writer) error {
	resp, err := http.Get(base + "/replication/status")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl status: %s", readError(resp))
	}
	var st replica.NodeStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	printNodeStatus(w, &st)
	return nil
}

func printNodeStatus(w io.Writer, st *replica.NodeStatus) {
	fmt.Fprintf(w, "role:        %s\n", st.Role)
	fmt.Fprintf(w, "generation:  %d\n", st.Generation)
	fmt.Fprintf(w, "max version: %d (%d graphs)\n", st.MaxVersion, st.Graphs)
	if st.Role != replica.RoleReplica {
		return
	}
	fmt.Fprintf(w, "primary:     %s\n", st.Primary)
	fmt.Fprintf(w, "lag:         %d versions", st.LagVersions)
	if st.LagVersions > 0 {
		fmt.Fprintf(w, " (behind for %.0fms)", st.LagMs)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "pulls:       %d (%d errors, %d stale), %d bytes shipped\n",
		st.Pulls, st.PullErrors, st.StalePulls, st.BytesPulled)
	fmt.Fprintf(w, "applied:     %d batches, %d snapshots, %d duplicates skipped\n",
		st.BatchesApplied, st.SnapshotsInstalled, st.DuplicatesSkipped)
	if st.LastError != "" {
		fmt.Fprintf(w, "last error:  %s\n", st.LastError)
	}
}

// replPost drives one mutation of the replication state and prints the
// node's resulting status document.
func replPost(base, path string, body any, w io.Writer) error {
	var payload io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		payload = bytes.NewReader(data)
	}
	resp, err := http.Post(base+path, "application/json", payload)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl %s: %s", strings.TrimPrefix(path, "/replication/"), readError(resp))
	}
	var st replica.NodeStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	fmt.Fprintf(w, "ok: %s\n", strings.TrimPrefix(path, "/replication/"))
	printNodeStatus(w, &st)
	return nil
}
