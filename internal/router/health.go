package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"

	"nucleus/internal/replica"
)

// GroupCheck is one group's outcome in a CheckOnce sweep.
type GroupCheck struct {
	Group      string `json:"group"`
	Primary    string `json:"primary"`
	Generation uint64 `json:"generation"`
	// Promoted is set when this sweep failed the old primary over to a
	// replica.
	Promoted bool `json:"promoted"`
	// Degraded is set when the primary is down and no replica could be
	// promoted — the group is read-only at best.
	Degraded bool   `json:"degraded"`
	Error    string `json:"error,omitempty"`
}

// CheckOnce probes every group's primary and fails over the ones that
// are down: the reachable replica with the highest MaxVersion is
// promoted under generation+1 (which fences the deposed primary's
// stamped writes), and the surviving replicas are repointed at it. The
// sweep is synchronous and idempotent — a healthy fleet is a no-op — so
// tests and the POST /router/check endpoint can drive it
// deterministically.
func (rt *Router) CheckOnce() []GroupCheck {
	rt.stats.Checks.Add(1)
	out := make([]GroupCheck, len(rt.groups))
	for i, g := range rt.groups {
		out[i] = rt.checkGroup(g)
		if out[i].Error != "" {
			rt.stats.FailedChecks.Add(1)
		}
	}
	return out
}

func (rt *Router) checkGroup(g *group) GroupCheck {
	g.mu.Lock()
	primaryIdx := g.primary
	gen := g.generation
	g.mu.Unlock()
	primary := g.nodes[primaryIdx]

	res := GroupCheck{Group: g.name, Primary: primary.name, Generation: gen}

	// Probe everybody; replica statuses double as promotion fitness.
	statuses := make([]*replica.NodeStatus, len(g.nodes))
	for j, n := range g.nodes {
		st, err := rt.nodeStatus(n)
		n.healthy.Store(err == nil)
		if err != nil {
			continue
		}
		statuses[j] = st
		n.mu.Lock()
		n.maxVersion = st.MaxVersion
		n.mu.Unlock()
	}

	if st := statuses[primaryIdx]; st != nil {
		// Primary healthy: adopt any higher generation it reports (e.g.
		// an operator promoted it out-of-band).
		if st.Generation > gen {
			g.mu.Lock()
			if st.Generation > g.generation {
				g.generation = st.Generation
			}
			res.Generation = g.generation
			g.mu.Unlock()
		}
		return res
	}

	// Primary down: pick the most caught-up reachable replica.
	best := -1
	for j, st := range statuses {
		if j == primaryIdx || st == nil || st.Role == replica.RolePrimary {
			continue
		}
		if best < 0 || st.MaxVersion > statuses[best].MaxVersion {
			best = j
		}
	}
	if best < 0 {
		res.Degraded = true
		res.Error = fmt.Sprintf("group %s: primary %s is down and no replica is reachable", g.name, primary.name)
		return res
	}

	candidate := g.nodes[best]
	newGen := gen + 1
	if err := rt.postJSON(candidate, "/replication/promote", promoteBody{Generation: newGen}); err != nil {
		res.Degraded = true
		res.Error = fmt.Sprintf("group %s: promoting %s to generation %d: %v", g.name, candidate.name, newGen, err)
		return res
	}
	g.mu.Lock()
	g.primary = best
	g.generation = newGen
	g.mu.Unlock()
	rt.stats.Promotions.Add(1)
	log.Printf("nucleus-router: group %s: promoted %s to primary at generation %d (old primary %s fenced)",
		g.name, candidate.name, newGen, primary.name)

	// Repoint the surviving replicas at the new primary. The deposed
	// primary is NOT repointed: if it resurrects it still claims the
	// primary role, its repoint would 409, and its stale generation
	// fences everything it tries to serve or pull.
	for j, n := range g.nodes {
		if j == best || j == primaryIdx || statuses[j] == nil {
			continue
		}
		if err := rt.postJSON(n, "/replication/repoint", repointBody{Primary: candidate.url.String(), Generation: newGen}); err != nil {
			log.Printf("nucleus-router: group %s: repointing %s at %s: %v", g.name, n.name, candidate.name, err)
		}
	}

	res.Primary = candidate.name
	res.Generation = newGen
	res.Promoted = true
	return res
}

type promoteBody struct {
	Generation uint64 `json:"generation"`
}

type repointBody struct {
	Primary    string `json:"primary"`
	Generation uint64 `json:"generation"`
}

func (rt *Router) nodeStatus(n *node) (*replica.NodeStatus, error) {
	resp, err := rt.probe.Get(n.url.String() + "/replication/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status probe: %d", resp.StatusCode)
	}
	var st replica.NodeStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

func (rt *Router) postJSON(n *node, path string, body any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := rt.probe.Post(n.url.String()+path, "application/json", bytes.NewReader(data))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", path, resp.StatusCode)
	}
	return nil
}
