package server

import (
	"fmt"
	"go/parser"
	"go/token"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"
	"time"

	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
)

// TestPipelinesAreTransportFree enforces what ARCHITECTURE.md states for
// both pipelines: write.go and read.go never see HTTP.
func TestPipelinesAreTransportFree(t *testing.T) {
	for _, file := range []string{"write.go", "read.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "net/http" {
				t.Errorf("%s imports net/http: the pipelines are transport-free", file)
			}
		}
	}
}

// TestDeadlineMissCountsColdRun: a ?maxMs= read that misses runs a full
// decomposition, so it is one miss and one cold run; when it converged
// inside its deadline it seeded the exact key, and the same request again
// is a hit that runs nothing.
func TestDeadlineMissCountsColdRun(t *testing.T) {
	ts := testServer(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 6}, nil)
	for i, want := range []struct{ hits, misses, cold int64 }{{0, 1, 1}, {1, 1, 1}} {
		var out decomposeResponse
		doJSON(t, "GET", ts.URL+"/graphs/g/decompose?dec=core&maxMs=600000", nil, &out)
		if !out.Converged || out.StoppedBy != "" {
			t.Fatalf("request %d did not converge inside a generous deadline: %+v", i, out)
		}
		st := getStats(t, ts.URL)
		if st.Cache.Hits.Load() != want.hits || st.Cache.Misses.Load() != want.misses || st.Mutations.ColdRuns.Load() != want.cold {
			t.Fatalf("request %d: hits=%d misses=%d coldRuns=%d, want %+v",
				i, st.Cache.Hits.Load(), st.Cache.Misses.Load(), st.Mutations.ColdRuns.Load(), want)
		}
	}
}

// TestBudgetedAndKeyedByThreads: a budgeted AND's τ depends on its worker
// count, so a one-thread request after a two-thread run of the same budget
// on the same graph version is a miss that computes the one-thread τ. A
// budgeted SND repeats at any thread count and keeps one entry.
func TestBudgetedAndKeyedByThreads(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))) // newQuery clamps threads to it
	ts, s := testServerWith(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "rmat", "scale": 8, "edgeFactor": 8, "seed": 7}, nil)
	e, _ := s.reg.get("g")
	ask := func(alg string, threads int) (*decompResult, bool) {
		q, err := s.newQuery(e, "truss", alg, 1, threads)
		if err != nil {
			t.Fatal(err)
		}
		q.pooled = true
		res, hit, err := s.resolve(q)
		if err != nil {
			t.Fatal(err)
		}
		return res, hit
	}
	if _, hit := ask("and", 2); hit {
		t.Fatal("the first budgeted AND was a hit")
	}
	res, hit := ask("and", 1)
	if hit {
		t.Fatal("a one-thread budgeted AND was served the two-thread run's τ")
	}
	want := localhi.And(s.instanceOf(e, nucleus.FamilyTruss), localhi.Options{Threads: 1, MaxSweeps: 1, Notification: true}).Tau
	if !reflect.DeepEqual(res.Kappa, want) {
		t.Fatal("the one-thread budgeted AND's τ differs from localhi.And at one thread")
	}
	if _, hit := ask("snd", 1); hit {
		t.Fatal("the first budgeted SND was a hit")
	}
	if _, hit := ask("snd", 2); !hit {
		t.Fatal("a two-thread budgeted SND missed the one-thread entry")
	}
}

// TestHitTakesNoSyncSlot: a cached answer is served while every
// synchronous-work slot is held by graph-sized work.
func TestHitTakesNoSyncSlot(t *testing.T) {
	ts, s := testServerWith(t, Config{Workers: 1})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 6}, nil)
	e, _ := s.reg.get("g")
	q, err := s.newQuery(e, "core", "and", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := s.resolve(q); hit || err != nil {
		t.Fatalf("first read: hit=%v err=%v", hit, err)
	}
	s.acquireSync() // the only slot
	defer s.releaseSync()
	done := make(chan bool, 1)
	go func() {
		_, hit, _ := s.resolve(q)
		done <- hit
	}()
	select {
	case hit := <-done:
		if !hit {
			t.Fatal("second read was not a hit")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("a cache hit waited for a synchronous-work slot")
	}
}

// TestFillDropsDeadVersion: fill is the one cache write of the read
// pipeline and of all three warm fills, so a result for a version the
// registry no longer holds — superseded or dropped between the run and the
// put — must not stay in the LRU, where nothing could reach it.
func TestFillDropsDeadVersion(t *testing.T) {
	ts, s := testServerWith(t, Config{})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 5}, nil)
	postJSON(t, ts.URL+"/graphs/g/edges", map[string]any{"edits": []map[string]any{{"op": "remove", "u": 0, "v": 1}}}, nil)
	dead, _ := s.reg.get("g") // maintained κ, like a recovered or replicated entry
	postJSON(t, ts.URL+"/graphs/g/edges", map[string]any{"edits": []map[string]any{{"op": "add", "u": 0, "v": 1}}}, nil)

	before := s.cache.len()
	s.fill(keyOf(dead, nucleus.FamilyCore, localhi.AND, 0), &decompResult{})
	s.warmRecoverCore(dead, nil)
	if s.cache.len() != before {
		t.Fatalf("a fill for a superseded version stayed cached: %d entries, want %d", s.cache.len(), before)
	}
	live, _ := s.reg.get("g")
	s.warmRecoverCore(live, nil)
	if s.cache.len() != before+1 {
		t.Fatal("a fill for the live version was not cached")
	}
	doJSON(t, "DELETE", ts.URL+"/graphs/g", nil, nil)
	s.warmRecoverCore(live, nil)
	if s.cache.len() != 0 {
		t.Fatalf("a fill for a dropped graph stayed cached: %d entries", s.cache.len())
	}
}

// TestFlightOwnerRules pins single-flight's two ownership rules on one
// key. A coalesced caller cannot stop the owner: the waiter's stop signal
// is raised throughout, and the run it joined still converges. A run its
// owner stopped is the owner's alone: it is not cached, and the waiter
// retries, pays for its own run and caches that.
func TestFlightOwnerRules(t *testing.T) {
	for _, ownerStops := range []bool{false, true} {
		t.Run(fmt.Sprintf("ownerStops=%v", ownerStops), func(t *testing.T) {
			ts, s := testServerWith(t, Config{})
			uploadPath(t, ts.URL, "p", 41) // >= 10 SND sweeps: stop is polled mid-run
			e, _ := s.reg.get("p")
			mk := func() query {
				q, err := s.newQuery(e, "core", "snd", 0, 1)
				if err != nil {
					t.Fatal(err)
				}
				q.pooled = true
				return q
			}
			attached, joined := make(chan struct{}), make(chan struct{})
			owner := mk()
			owner.onFlight = func(*flight) { close(attached) }
			owner.stop = func() bool {
				<-joined // hold the run at its first sweep boundary until the waiter is on the flight
				return ownerStops
			}
			waiter := mk()
			waiter.onFlight = func(*flight) {
				select {
				case <-joined: // the retry opens a flight of its own
				default:
					close(joined)
				}
			}
			waiter.stop = func() bool { return !ownerStops } // consulted only by a run the waiter owns

			type answer struct {
				res *decompResult
				hit bool
			}
			ownerDone := make(chan answer)
			go func() {
				res, hit, err := s.resolve(owner)
				if err != nil {
					t.Error(err)
				}
				ownerDone <- answer{res, hit}
			}()
			<-attached
			wres, whit, err := s.resolve(waiter)
			if err != nil {
				t.Fatal(err)
			}
			o := <-ownerDone
			cached, ok := s.cache.peek(owner.key())
			if !ok || cached != wres || !wres.Converged {
				t.Fatalf("the waiter's answer is not the cached converged result (cached=%v)", ok)
			}
			st := getStats(t, ts.URL)
			if ownerStops {
				if !o.res.Stopped || o.hit || whit || wres == o.res {
					t.Fatalf("owner stopped=%v hit=%v, waiter hit=%v: want a stopped owner and a waiter that ran for itself", o.res.Stopped, o.hit, whit)
				}
				if st.Cache.Hits.Load() != 0 || st.Cache.Misses.Load() != 2 || st.Mutations.ColdRuns.Load() != 2 {
					t.Fatalf("hits=%d misses=%d coldRuns=%d, want 0/2/2", st.Cache.Hits.Load(), st.Cache.Misses.Load(), st.Mutations.ColdRuns.Load())
				}
			} else {
				if o.res != wres || o.hit || !whit {
					t.Fatalf("owner hit=%v waiter hit=%v same=%v: want one shared run the waiter could not stop", o.hit, whit, o.res == wres)
				}
				if st.Cache.Hits.Load() != 1 || st.Cache.Misses.Load() != 1 || st.Mutations.ColdRuns.Load() != 1 {
					t.Fatalf("hits=%d misses=%d coldRuns=%d, want 1/1/1", st.Cache.Hits.Load(), st.Cache.Misses.Load(), st.Mutations.ColdRuns.Load())
				}
			}
		})
	}
}

// TestReadRoutesOneAnswerProperty is the read-side twin of
// TestThreeRoutesOneStateProperty: an asynchronous job, a synchronous read
// and a deadline read with a generous deadline are one pipeline, so over a
// seeded random workload of (dec, alg, maxSweeps) on two graph families
// they return the identical τ array — except that a deadline read prefers
// a cached exact κ to its sweep budget — and after every request /stats
// agrees with a model of the cache that knows only the key rules: hits +
// misses == lookups == requests sent, and misses == coldRuns == the keys
// the model says had to be computed.
func TestReadRoutesOneAnswerProperty(t *testing.T) {
	type key struct {
		dec, alg string
		budget   int
	}
	for _, gen := range []map[string]any{
		{"generator": "planted", "communities": 3, "size": 10, "p": 0.8, "interEdges": 12, "seed": 5},
		{"generator": "plc", "n": 90, "k": 4, "seed": 11},
	} {
		t.Run(gen["generator"].(string), func(t *testing.T) {
			ts, s := testServerWith(t, Config{Workers: 2, CacheSize: 64}) // every key fits: the model has no eviction
			postJSON(t, ts.URL+"/graphs/g/generate", gen, nil)
			e, _ := s.reg.get("g")
			exact := map[string][]int32{}
			for _, dec := range []nucleus.Family{nucleus.FamilyCore, nucleus.FamilyTruss, nucleus.FamilyN34} {
				exact[dec.String()] = peel.Run(s.instanceOf(e, dec)).Kappa
			}

			rng := rand.New(rand.NewSource(77))
			filled := map[key]bool{}
			var sent, misses, exactServed int64
			for step := 0; step < 30; step++ {
				dec := []string{"core", "truss", "n34"}[rng.Intn(3)]
				alg := []string{"and", "snd", "peel"}[rng.Intn(3)]
				asked := []int{0, 0, 1, 2, 3, -1}[rng.Intn(6)]
				k := key{dec, alg, asked}
				if alg == "peel" || asked < 0 {
					k.budget = 0
				}
				kExact := key{dec, alg, 0}
				var budgeted []int32 // the answer of this step's own key
				check := func(route string, tau []int32, converged, fromExact bool) {
					t.Helper()
					if converged && !reflect.DeepEqual(tau, exact[dec]) {
						t.Fatalf("step %d %s %+v: a converged τ is not the peeled κ", step, route, k)
					}
					if !converged && (fromExact || k.budget == 0) {
						t.Fatalf("step %d %s %+v: an unbudgeted answer is not converged", step, route, k)
					}
					if fromExact {
						return // the exact κ, not this step's budgeted τ
					}
					if budgeted == nil {
						budgeted = tau
					} else if !reflect.DeepEqual(tau, budgeted) {
						t.Fatalf("step %d %s %+v: τ differs from another route's", step, route, k)
					}
				}
				path := fmt.Sprintf("%s/graphs/g/decompose?dec=%s&alg=%s&maxSweeps=%d&tau=true", ts.URL, dec, alg, asked)
				routes := []func(){
					func() { // the job route
						var jv jobView
						postJSON(t, ts.URL+"/jobs", jobRequest{Graph: "g", Decomposition: dec, Algorithm: alg, MaxSweeps: asked}, &jv)
						if jv.Cached != filled[k] {
							t.Fatalf("step %d job %+v: cached=%v, the model says %v", step, k, jv.Cached, filled[k])
						}
						if !filled[k] {
							misses++
							filled[k] = true
						}
						if v := waitForJob(t, ts.URL, jv.ID); v.State != JobDone {
							t.Fatalf("step %d job %+v ended %s: %s", step, k, v.State, v.Error)
						}
						var res jobResultResponse
						doJSON(t, "GET", ts.URL+"/jobs/"+jv.ID+"/result?kappa=true", nil, &res)
						check("job", res.Kappa, res.Converged, false)
					},
					func() { // the synchronous route
						if !filled[k] {
							misses++
							filled[k] = true
						}
						var out decomposeResponse
						doJSON(t, "GET", path, nil, &out)
						check("sync", out.Tau, out.Converged, false)
					},
					func() { // the deadline route: exact key, then own key
						fromExact := k.budget > 0 && filled[kExact]
						ran := !fromExact && !filled[k]
						var out decomposeResponse
						doJSON(t, "GET", path+"&maxMs=600000", nil, &out)
						if out.StoppedBy == "deadline" {
							t.Fatalf("step %d: a ten-minute deadline fired", step)
						}
						switch {
						case fromExact:
							exactServed++
						case ran && out.Converged:
							misses++
							filled[kExact] = true // the exact answer, whatever the budget was
						case ran:
							misses++
							filled[k] = true
						}
						check("deadline", out.Tau, out.Converged, fromExact)
					},
				}
				rng.Shuffle(len(routes), func(i, j int) { routes[i], routes[j] = routes[j], routes[i] })
				for _, route := range routes {
					route()
					sent++
					st := getStats(t, ts.URL)
					if st.Cache.Hits.Load()+st.Cache.Misses.Load() != st.Cache.Lookups || st.Cache.Lookups != sent {
						t.Fatalf("step %d %+v: hits %d + misses %d, lookups %d, requests sent %d", step, k, st.Cache.Hits.Load(), st.Cache.Misses.Load(), st.Cache.Lookups, sent)
					}
					if st.Cache.Misses.Load() != misses || st.Mutations.ColdRuns.Load() != misses {
						t.Fatalf("step %d %+v: misses %d coldRuns %d, the model computed %d keys", step, k, st.Cache.Misses.Load(), st.Mutations.ColdRuns.Load(), misses)
					}
				}
			}
			if exactServed == 0 || misses == 0 || misses == sent {
				t.Fatalf("workload too thin: %d requests, %d misses, %d deadline reads served the exact κ", sent, misses, exactServed)
			}
		})
	}
}

// TestSpellingsShareOneCacheEntry: every spelling of a decomposition or an
// algorithm names one cache key. Per family, a job under the canonical
// names fills the entry; a job and a /decompose read under each other
// spelling are hits on it, and their bodies report the canonical names.
func TestSpellingsShareOneCacheEntry(t *testing.T) {
	ts, s := testServerWith(t, Config{Workers: 1})
	postJSON(t, ts.URL+"/graphs/g/generate", map[string]any{"generator": "complete", "n": 8}, nil)
	for _, f := range []nucleus.Family{nucleus.FamilyCore, nucleus.FamilyTruss, nucleus.FamilyN34} {
		var first jobView
		postJSON(t, ts.URL+"/jobs", jobRequest{Graph: "g", Decomposition: f.String(), Algorithm: "and"}, &first)
		if v := waitForJob(t, ts.URL, first.ID); v.State != JobDone || v.Cached {
			t.Fatalf("%v: first job %s, cached=%v", f, v.State, v.Cached)
		}
		others := f.Spellings()[1:]
		if f == nucleus.FamilyCore {
			others = append(others, "")
		}
		for _, dec := range others {
			for _, alg := range []string{"and", ""} {
				hits := s.stats.Cache.Hits.Load()
				var jv jobView
				postJSON(t, ts.URL+"/jobs", jobRequest{Graph: "g", Decomposition: dec, Algorithm: alg}, &jv)
				if !jv.Cached || jv.Decomposition != f.String() || jv.Algorithm != "and" {
					t.Fatalf("job %q/%q: cached=%v, reports %q/%q, want a hit as %v/and", dec, alg, jv.Cached, jv.Decomposition, jv.Algorithm, f)
				}
				var out decomposeResponse
				doJSON(t, "GET", fmt.Sprintf("%s/graphs/g/decompose?dec=%s&alg=%s", ts.URL, dec, alg), nil, &out)
				if out.Decomposition != f.String() || out.Algorithm != "and" {
					t.Fatalf("/decompose %q/%q reports %q/%q, want %v/and", dec, alg, out.Decomposition, out.Algorithm, f)
				}
				if got := s.stats.Cache.Hits.Load() - hits; got != 2 {
					t.Fatalf("%q/%q: %d cache hits, want 2", dec, alg, got)
				}
			}
		}
	}
}
