package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
)

// decomposeResponse and jobResultResponse are the two result bodies as the
// handlers encoded them whole with writeJSON, histogram and cell array
// counted and reflected per request, kept verbatim: the oracle of
// TestDecomposeBodyMatchesEncoder, and what the other tests decode.

// decomposeResponse is the body of GET /graphs/{name}/decompose.
type decomposeResponse struct {
	Graph         string `json:"graph"`
	Version       uint64 `json:"version"`
	Decomposition string `json:"decomposition"`
	Algorithm     string `json:"algorithm"`
	MaxSweeps     int    `json:"maxSweeps"`
	MaxMs         int    `json:"maxMs"`
	Cells         int    `json:"cells"`
	// MaxTau is the largest τ value: for a converged run, the largest κ.
	MaxTau    int32 `json:"maxTau"`
	Converged bool  `json:"converged"`
	// Approximate marks an uncertified result: the returned τ (and
	// histogram) upper-bound the exact κ pointwise but may still shrink.
	Approximate bool `json:"approximate"`
	// StoppedBy is what ended a non-converged run: "deadline" (maxMs) or
	// "sweeps" (maxSweeps); empty for converged runs.
	StoppedBy   string               `json:"stoppedBy,omitempty"`
	Sweeps      int                  `json:"sweeps"`
	Iterations  int                  `json:"iterations"`
	DurationMs  float64              `json:"durationMs"`
	Convergence convergenceStatsView `json:"convergence"`
	// Accuracy compares the partial τ to a cached converged κ when one
	// exists for this graph version; absent otherwise.
	Accuracy *accuracyView `json:"accuracy,omitempty"`
	// Histogram[k] is the number of cells with τ exactly k.
	Histogram []int64 `json:"histogram"`
	// Tau is the full per-cell τ array; only with ?tau=true (alias
	// ?kappa=true).
	Tau []int32 `json:"tau,omitempty"`
}

type jobResultResponse struct {
	jobView
	// Histogram[k] is the number of cells with κ index exactly k.
	Histogram []int64 `json:"histogram"`
	// Kappa is the full per-cell κ array; only with ?kappa=true.
	Kappa []int32 `json:"kappa,omitempty"`
}

// refHistogram counts the cells at each κ (or τ) value.
func refHistogram(kappa []int32, maxKappa int32) []int64 {
	hist := make([]int64, maxKappa+1)
	for _, k := range kappa {
		hist[k]++
	}
	return hist
}

// refDecomposeBody is the body writeJSON gave view with the histogram of
// kappa and, when cells, kappa itself.
func refDecomposeBody(view decomposeResponse, kappa []int32, cells bool) []byte {
	view.Histogram, view.Tau = refHistogram(kappa, view.MaxTau), nil
	if cells {
		view.Tau = kappa
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, view)
	return rec.Body.Bytes()
}

// refJobResultBody is refDecomposeBody for GET /jobs/{id}/result.
func refJobResultBody(view jobResultResponse, kappa []int32, cells bool) []byte {
	view.Histogram, view.Kappa = refHistogram(kappa, view.MaxKappa), nil
	if cells {
		view.Kappa = kappa
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, view)
	return rec.Body.Bytes()
}

// serveBody answers one request in process and returns its 200 body,
// checking the Content-Length header against it.
func serveBody(tb testing.TB, s *Server, method, path, body string) []byte {
	tb.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	if rec.Code/100 != 2 {
		tb.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
	}
	if cl := rec.Header().Get("Content-Length"); method == "GET" && cl != strconv.Itoa(rec.Body.Len()) {
		tb.Fatalf("%s %s: Content-Length %q on a body of %d bytes", method, path, cl, rec.Body.Len())
	}
	return rec.Body.Bytes()
}

// TestDecomposeBodyMatchesEncoder holds both result routes to the bytes
// the whole-struct encoder gives the same view value: the head of each
// body is decoded into the verbatim struct, which is then re-encoded with
// the histogram and cells of the result the server holds.
func TestDecomposeBodyMatchesEncoder(t *testing.T) {
	ts, s := testServerWith(t, Config{Workers: 2, CacheSize: 256})
	names := []string{"g", "a<b&c>", `"q"`, "é"}
	for _, name := range names {
		resp := postJSON(t, ts.URL+"/graphs/"+url.PathEscape(name)+"/generate", map[string]any{
			"generator": "planted", "communities": 3, "size": 10, "p": 0.6, "interEdges": 8, "seed": 1,
		}, nil)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("generate %s: status %d", name, resp.StatusCode)
		}
	}
	serveBody(t, s, "POST", "/graphs/empty", "")
	uploadPath(t, ts.URL, "path", 20001)

	check := func(path string, kappa func(view decomposeResponse) []int32, cells bool) decomposeResponse {
		t.Helper()
		body := serveBody(t, s, "GET", path, "")
		var view decomposeResponse
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if want := refDecomposeBody(view, kappa(view), cells); !bytes.Equal(body, want) {
			t.Fatalf("GET %s:\n got %s\nwant %s", path, body, want)
		}
		return view
	}
	cached := func(name, dec, alg string, maxSweeps int) func(decomposeResponse) []int32 {
		return func(decomposeResponse) []int32 {
			e, _ := s.reg.get(name)
			q, err := s.newQuery(e, dec, alg, maxSweeps, 0) // the read's own key: a budgeted AND's carries its threads
			if err != nil {
				t.Fatal(err)
			}
			res, ok := s.cache.peek(q.key())
			if !ok {
				t.Fatalf("%s %s/%s/%d is not cached", name, dec, alg, maxSweeps)
			}
			return res.Kappa
		}
	}

	for _, dec := range []string{"core", "truss", "n34"} {
		for _, alg := range []string{"peel", "and", "snd"} {
			sweeps := 2
			if alg == "peel" {
				sweeps = 0
			}
			for _, cells := range []bool{false, true} {
				for _, name := range names {
					path := "/graphs/" + url.PathEscape(name) + "/decompose?dec=" + dec + "&alg=" + alg
					if alg != "peel" {
						path += "&maxSweeps=2"
					}
					if cells {
						path += "&tau=true"
					}
					check(path, cached(name, dec, alg, sweeps), cells)
				}
			}
		}
	}
	check("/graphs/g/decompose?dec=truss&kappa=true", cached("g", "truss", "and", 0), true)

	// n = 0: the histogram is [0] and tau stays omitted when asked for.
	if view := check("/graphs/empty/decompose?tau=true", cached("empty", "core", "and", 0), true); view.Cells != 0 {
		t.Fatalf("empty graph has %d cells", view.Cells)
	}

	// A deadline-stopped read beside a converged κ reports its accuracy; it
	// is never cached, so its own τ is the oracle's cells.
	check("/graphs/path/decompose?dec=core&alg=peel", cached("path", "core", "peel", 0), false)
	fromBody := func(view decomposeResponse) []int32 { return view.Tau }
	if view := check("/graphs/path/decompose?dec=core&alg=snd&maxMs=1&tau=true", fromBody, true); view.StoppedBy != "deadline" || view.Accuracy == nil {
		t.Fatalf("deadline read: stoppedBy %q, accuracy %v", view.StoppedBy, view.Accuracy)
	}

	// GET /jobs/{id}/result: a computed job and a cache hit, whose slim
	// result shares the memo, each with and without ?kappa=true.
	for _, graph := range []string{"g", "g", "empty"} {
		var jv jobView
		postJSON(t, ts.URL+"/jobs", jobRequest{Graph: graph, Decomposition: "truss", Algorithm: "snd"}, &jv)
		waitForJob(t, ts.URL, jv.ID)
		j, _ := s.jobs.get(jv.ID)
		j.mu.Lock()
		kappa := j.result.Kappa
		j.mu.Unlock()
		for _, cells := range []bool{false, true} {
			path := "/jobs/" + jv.ID + "/result"
			if cells {
				path += "?kappa=true"
			}
			body := serveBody(t, s, "GET", path, "")
			var view jobResultResponse
			if err := json.Unmarshal(body, &view); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			if want := refJobResultBody(view, kappa, cells); !bytes.Equal(body, want) {
				t.Fatalf("GET %s:\n got %s\nwant %s", path, body, want)
			}
		}
	}
}

// TestTailMemoConcurrentFirstReads has several readers ask for one fresh
// result at once, so the memo's first use races (under -race) with the
// other readers': every body ends in the same tail.
func TestTailMemoConcurrentFirstReads(t *testing.T) {
	s := New(Config{Workers: 4})
	t.Cleanup(s.Close)
	serveBody(t, s, "POST", "/graphs/g/generate",
		`{"generator":"planted","communities":4,"size":20,"p":0.5,"interEdges":20,"seed":2}`)
	bodies := make([][]byte, 4)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest("GET", "/graphs/g/decompose?dec=truss&tau=true", nil))
			bodies[i] = rec.Body.Bytes()
		}()
	}
	wg.Wait()
	tail := func(body []byte) string {
		_, after, _ := strings.Cut(string(body), `,"histogram":`)
		return after
	}
	for i, body := range bodies {
		if tail(body) == "" || tail(body) != tail(bodies[0]) {
			t.Fatalf("body %d ends %.80q, body 0 %.80q", i, tail(body), tail(bodies[0]))
		}
	}
}

// FuzzTauBody holds appendInts to json.Marshal over any int32 and int64
// arrays, the data read four and eight bytes at a time.
func FuzzTauBody(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint32(nil, 1<<31)) // MinInt32
	f.Add(binary.LittleEndian.AppendUint64(nil, 1<<63)) // MinInt64
	f.Add([]byte{9, 0, 0, 0, 10, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x99, 0x99, 0x99, 0x99})
	// The edges of the two-digit table, each alone and all in one array, in
	// the int32 form (four bytes) and the int64 form (eight).
	edges := []int64{0, 9, 10, 99, 100, -1, -9, -10, -99, -100, math.MaxInt32, math.MaxInt64}
	var all32, all64 []byte
	for _, v := range edges {
		if v <= math.MaxInt32 {
			f.Add(binary.LittleEndian.AppendUint32(nil, uint32(v)))
			all32 = binary.LittleEndian.AppendUint32(all32, uint32(v))
		}
		f.Add(binary.LittleEndian.AppendUint64(nil, uint64(v)))
		all64 = binary.LittleEndian.AppendUint64(all64, uint64(v))
	}
	f.Add(all32)
	f.Add(all64)
	f.Fuzz(func(t *testing.T, data []byte) {
		i32 := make([]int32, 0, len(data)/4)
		for b := data; len(b) >= 4; b = b[4:] {
			i32 = append(i32, int32(binary.LittleEndian.Uint32(b)))
		}
		i64 := make([]int64, 0, len(data)/8)
		for b := data; len(b) >= 8; b = b[8:] {
			i64 = append(i64, int64(binary.LittleEndian.Uint64(b)))
		}
		for _, c := range []struct {
			got []byte
			v   any
		}{{appendInts(i32), i32}, {appendInts(i64), i64}} {
			want, err := json.Marshal(c.v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(c.got, want) || len(c.got) != cap(c.got) {
				t.Fatalf("appendInts(%v) = %s (cap %d), json.Marshal %s", c.v, c.got, cap(c.got), want)
			}
		}
	})
}

// discardWriter is a ResponseWriter that keeps only the headers.
type discardWriter struct{ header http.Header }

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// hitFixture reads the truss τ of the 12 × 80 planted graph once, so that
// every later serving of the returned request is a hit, and returns the
// cached result.
func hitFixture(tb testing.TB) (*Server, *discardWriter, *http.Request, *decompResult) {
	s := New(Config{})
	tb.Cleanup(s.Close)
	serveBody(tb, s, "POST", "/graphs/g/generate",
		`{"generator":"planted","communities":12,"size":80,"p":0.3,"interEdges":1200,"seed":1}`)
	w := &discardWriter{header: http.Header{}}
	r := httptest.NewRequest("GET", "/graphs/g/decompose?dec=truss&alg=and&tau=true", nil)
	s.ServeHTTP(w, r)
	e, _ := s.reg.get("g")
	res, ok := s.cache.peek(keyOf(e, nucleus.FamilyTruss, localhi.AND, 0))
	if !ok {
		tb.Fatal("the first read left no cached result")
	}
	return s, w, r, res
}

// TestDecomposeHitCostsNoCells is the hit path's cost gate: after the first
// read, a hit allocates a constant number of times and fewer bytes than one
// per cell — its head and nothing per cell: the memo's cells go to Write as
// they are — and the memo is the first read's.
func TestDecomposeHitCostsNoCells(t *testing.T) {
	s, w, r, res := hitFixture(t)
	n := len(res.Kappa)
	tail := &res.tail.cells[0]

	const hits = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range hits {
		s.ServeHTTP(w, r)
	}
	runtime.ReadMemStats(&after)
	if perHit := (after.TotalAlloc - before.TotalAlloc) / hits; perHit >= uint64(n) {
		t.Errorf("a hit allocates %d bytes for %d cells, want < 1 per cell", perHit, n)
	}
	if allocs := testing.AllocsPerRun(hits, func() { s.ServeHTTP(w, r) }); allocs > 64 {
		t.Errorf("a hit allocates %.0f times, want at most 64", allocs)
	}
	if &res.tail.cells[0] != tail {
		t.Error("a hit re-encoded the cached result's tail")
	}
}

// BenchmarkDecomposeHit times one /decompose cache hit with the full τ in
// process, on the benchmark's 12 × 80 planted graph.
func BenchmarkDecomposeHit(b *testing.B) {
	s, w, r, _ := hitFixture(b)
	b.ReportAllocs()
	for range b.N {
		s.ServeHTTP(w, r)
	}
}

// BenchmarkFirstRead times the first read of a fresh result, which is what
// every read of a version just published is: the hit of
// BenchmarkDecomposeHit on a result whose tail memo is new, so the read
// counts the histogram, encodes it and the cells, and writes the body.
func BenchmarkFirstRead(b *testing.B) {
	s, w, r, res := hitFixture(b)
	b.ReportAllocs()
	for range b.N {
		res.tail = new(tailMemo)
		s.ServeHTTP(w, r)
	}
}
