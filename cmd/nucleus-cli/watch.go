package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
)

// runWatch handles the `watch` subcommand: it attaches to a nucleusd
// job's anytime progress stream (GET /jobs/{id}/stream, server-sent
// events) and prints one line per sweep until the job finishes. With
// -graph it first submits a fresh job and then watches it, so
//
//	nucleus-cli watch -server http://localhost:8080 -graph web -dec truss
//
// is a complete submit-and-follow loop; with -job it attaches to an
// already-running job.
func runWatch(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("nucleus-cli watch", flag.ContinueOnError)
	var (
		server    = fs.String("server", "http://localhost:8080", "nucleusd base URL")
		jobID     = fs.String("job", "", "existing job id to watch")
		graphName = fs.String("graph", "", "graph name: submit a new job on it, then watch")
		decName   = fs.String("dec", "core", "decomposition for -graph: core, truss or n34 (aliases as in docs/API.md)")
		algName   = fs.String("alg", "and", "algorithm for -graph: and, snd or peel")
		threads   = fs.Int("threads", 0, "job threads for -graph (0 = server default)")
		maxSweeps = fs.Int("max-sweeps", 0, "sweep budget for -graph (0 = to convergence)")
		tenant    = fs.String("tenant", "", "tenant name for -graph, sent as the X-Nucleus-Tenant header (empty = the server's default tenant)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if (*jobID == "") == (*graphName == "") {
		return fmt.Errorf("watch: exactly one of -job or -graph is required")
	}
	base := strings.TrimRight(*server, "/")

	id := *jobID
	if *graphName != "" {
		// Parsed here, as the server parses them: a bad name fails before
		// anything is sent.
		dec, err := nucleus.ParseFamily(*decName)
		if err != nil {
			return err
		}
		alg, err := localhi.ParseAlgorithm(*algName)
		if err != nil {
			return err
		}
		if id, err = submitJob(base, *graphName, dec.String(), alg.String(), *tenant, *threads, *maxSweeps); err != nil {
			return err
		}
		fmt.Fprintf(w, "submitted job %s (%s %s on %q)\n", id, *algName, *decName, *graphName)
	}

	resp, err := http.Get(base + "/jobs/" + id + "/stream")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("watch: %s", readError(resp))
	}
	return printStream(resp.Body, w)
}

// submitJob posts a decomposition job and returns its id. tenant, when
// non-empty, is sent as the X-Nucleus-Tenant header so the server's
// scheduler accounts the job (and its quotas) to that tenant.
func submitJob(base, graph, dec, alg, tenant string, threads, maxSweeps int) (string, error) {
	body, _ := json.Marshal(map[string]any{
		"graph": graph, "decomposition": dec, "algorithm": alg,
		"threads": threads, "maxSweeps": maxSweeps,
	})
	req, err := http.NewRequest("POST", base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Nucleus-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("submitting job: %s", readError(resp))
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return "", err
	}
	return v.ID, nil
}

// readError extracts the server's {"error": ...} message, falling back
// to the HTTP status.
func readError(resp *http.Response) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
		return e.Error
	}
	return resp.Status
}

// watchSnapshot mirrors the server's progress snapshot JSON.
type watchSnapshot struct {
	Sweep          int     `json:"sweep"`
	Cells          int     `json:"cells"`
	MaxTau         int32   `json:"maxTau"`
	Updates        int64   `json:"updates"`
	UpdateRate     float64 `json:"updateRate"`
	FractionStable float64 `json:"fractionStable"`
	Converged      bool    `json:"converged"`
	ElapsedMs      float64 `json:"elapsedMs"`
}

// watchDone mirrors the SSE done-event payload.
type watchDone struct {
	State       string         `json:"state"`
	Error       string         `json:"error"`
	Approximate bool           `json:"approximate"`
	Snapshot    *watchSnapshot `json:"snapshot"`
}

// printStream renders the SSE feed: one line per progress event, a
// summary line for the done event.
func printStream(body io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "progress":
				var s watchSnapshot
				if err := json.Unmarshal([]byte(data), &s); err != nil {
					return fmt.Errorf("bad progress event %q: %w", data, err)
				}
				fmt.Fprintf(w, "sweep %4d  max-tau %5d  updates %9d  stable %6.2f%%  %8s\n",
					s.Sweep, s.MaxTau, s.Updates, 100*s.FractionStable,
					(time.Duration(s.ElapsedMs * float64(time.Millisecond))).Round(time.Millisecond))
			case "done":
				var d watchDone
				if err := json.Unmarshal([]byte(data), &d); err != nil {
					return fmt.Errorf("bad done event %q: %w", data, err)
				}
				if d.State != "done" {
					// A failed or cancelled job must fail the command so
					// scripted callers do not mistake it for success.
					if d.Error != "" {
						return fmt.Errorf("job %s: %s", d.State, d.Error)
					}
					return fmt.Errorf("job ended %s", d.State)
				}
				if d.Error != "" {
					fmt.Fprintf(w, "job %s: %s\n", d.State, d.Error)
				} else if d.Snapshot != nil {
					kind := "exact (tau = kappa certified)"
					if d.Approximate {
						kind = "approximate (tau >= kappa)"
					}
					fmt.Fprintf(w, "job %s after %d sweeps in %s: max-tau %d, %s\n",
						d.State, d.Snapshot.Sweep,
						(time.Duration(d.Snapshot.ElapsedMs * float64(time.Millisecond))).Round(time.Millisecond),
						d.Snapshot.MaxTau, kind)
				} else {
					fmt.Fprintf(w, "job %s\n", d.State)
				}
				return nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading stream: %w", err)
	}
	return fmt.Errorf("stream ended without a done event")
}
