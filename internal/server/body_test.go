package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"nucleus/internal/graph"
	"nucleus/internal/localhi"
	"nucleus/internal/nucleus"
	"nucleus/internal/peel"
	"nucleus/internal/store"
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
		marks := make([]int, (len(i32)+63)/64)
		for _, c := range []struct {
			got []byte
			v   any
		}{{appendInts(i32, marks), i32}, {appendInts(i64, nil), i64}} {
			want, err := json.Marshal(c.v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(c.got, want) || len(c.got) != cap(c.got) {
				t.Fatalf("appendInts(%v) = %s (cap %d), json.Marshal %s", c.v, c.got, cap(c.got), want)
			}
		}
		if want := refMarks(appendInts(i32, nil)); !slices.Equal(marks, want) {
			t.Fatalf("appendInts(%v) marks %v, want %v", i32, marks, want)
		}
	})
}

// refMarks returns the offset of every 64th value in the JSON array cells.
func refMarks(cells []byte) []int {
	var marks []int
	for i, value := 1, 0; i < len(cells)-1; i++ {
		if i == 1 || cells[i-1] == ',' {
			if value%64 == 0 {
				marks = append(marks, i)
			}
			value++
		}
	}
	return marks
}

// checkSplice makes the memo of base, splices from it the memo of base
// with cores changed, and holds that memo's cells, marks, counts and
// histogram to a fresh encode of the changed array; then splices base back
// from it the same way, so a spliced memo is held as a base too.
func checkSplice(t *testing.T, base []int32, cores []store.CoreChange) {
	t.Helper()
	next := slices.Clone(base)
	back := make([]store.CoreChange, len(cores))
	for i, c := range cores {
		back[i] = store.CoreChange{V: c.V, Kappa: base[c.V]}
		next[c.V] = c.Kappa
	}
	prev := &decompResult{Kappa: base, MaxKappa: maxOf(base), tail: new(tailMemo)}
	prev.encoded()
	for _, step := range []struct {
		kappa []int32
		cores []store.CoreChange
	}{{next, cores}, {base, back}} {
		res := &decompResult{Kappa: step.kappa, MaxKappa: maxOf(step.kappa), tail: tailOver(prev, step.cores, len(step.kappa))}
		if res.tail.base == nil {
			t.Fatal("a made predecessor of the same length was not spliced")
		}
		got := res.encoded()
		want := (&decompResult{Kappa: step.kappa, MaxKappa: res.MaxKappa, tail: new(tailMemo)}).encoded()
		if !bytes.Equal(got.cells, want.cells) || !slices.Equal(got.marks, want.marks) ||
			!slices.Equal(got.counts, want.counts) || !bytes.Equal(got.histogram, want.histogram) {
			t.Fatalf("%v over %v: spliced\n cells %s marks %v histogram %s\nencoded\n cells %s marks %v histogram %s",
				step.cores, prev.Kappa, got.cells, got.marks, got.histogram, want.cells, want.marks, want.histogram)
		}
		if got.base != nil || got.moved != nil {
			t.Fatal("the splice kept its predecessor")
		}
		prev = res
	}
}

// spliceKappa maps a fuzzed byte to a κ: 0–119 twice over (both width
// crossings, 9↔10 and 99↔100, and the strconv path just above them), or
// one of 3 to 5 digits.
func spliceKappa(b byte) int32 {
	if b < 240 {
		return int32(b) % 120
	}
	return int32(b-240)*997 + 100
}

// FuzzTailSplice holds the splice of a made tail memo to a fresh encode:
// data is the predecessor's κ, one byte a value (spliceKappa), and picks,
// read in pairs, the change list: each pair a gap past the previous moved
// index and the new value.
func FuzzTailSplice(f *testing.F) {
	f.Add([]byte{}, []byte{})                                         // n = 0
	f.Add([]byte{9, 10, 99, 100}, []byte{})                           // an empty list
	f.Add([]byte{9, 10, 99, 100}, []byte{0, 10, 0, 9, 0, 100, 0, 99}) // every crossing, first and last value
	f.Add([]byte{1, 2, 3}, []byte{2, 250})                            // the maximum rises past the table
	f.Add([]byte{1, 250, 3}, []byte{1, 0})                            // and falls back
	f.Add(bytes.Repeat([]byte{9, 99, 5}, 100), []byte{0, 10, 63, 100, 0, 1, 62, 119, 170, 8})
	f.Add(bytes.Repeat([]byte{115}, 200), []byte{63, 1, 0, 1, 63, 1, 70, 1}) // every 64th value
	f.Fuzz(func(t *testing.T, data, picks []byte) {
		base := make([]int32, len(data))
		for i, b := range data {
			base[i] = spliceKappa(b)
		}
		var cores []store.CoreChange
		for v, k := 0, 0; k+1 < len(picks); k += 2 {
			if v += int(picks[k]); v >= len(base) {
				break
			}
			cores = append(cores, store.CoreChange{V: uint32(v), Kappa: spliceKappa(picks[k+1])})
			v++
		}
		checkSplice(t, base, cores)
	})
}

// TestTailSpliceMatchesEncode runs checkSplice over random κ arrays of up
// to a few thousand values around both width crossings and about 16
// ascending changes each, the shape of a fleet batch.
func TestTailSpliceMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		n := rng.Intn(5000)
		base := make([]int32, n)
		for i := range base {
			base[i] = spliceKappa(byte(rng.Intn(256)))
		}
		var cores []store.CoreChange
		for v := 0; v < n; v++ {
			if rng.Intn(n/16+1) == 0 {
				cores = append(cores, store.CoreChange{V: uint32(v), Kappa: max(0, base[v]+int32(rng.Intn(3))-1)})
			}
		}
		checkSplice(t, base, cores)
	}
}

// TestTailOverFallsBack: a result installed with no predecessor, over one
// nobody has read, or over one with fewer cells encodes in full.
func TestTailOverFallsBack(t *testing.T) {
	kappa := []int32{1, 2, 3}
	unread := &decompResult{Kappa: kappa, MaxKappa: 3, tail: new(tailMemo)}
	shorter := &decompResult{Kappa: kappa[:2], MaxKappa: 2, tail: new(tailMemo)}
	shorter.encoded()
	for name, seed := range map[string]*decompResult{"no seed": nil, "unread": unread, "grown": shorter} {
		if m := tailOver(seed, nil, len(kappa)); m.base != nil {
			t.Errorf("%s: the memo splices", name)
		}
	}
}

// coreBody is the replica-side check of TestReplicaFirstReadsMatchEncoder
// and TestSplicedFirstReadsConcurrent: body, a /decompose?dec=core&tau=true
// answer, is what the whole-struct encoder gives its own head and τ, and
// that τ is want.
func coreBody(body []byte, want func(version uint64) []int32) error {
	var view decomposeResponse
	if err := json.Unmarshal(body, &view); err != nil {
		return err
	}
	if ref := refDecomposeBody(view, view.Tau, true); !bytes.Equal(body, ref) {
		return fmt.Errorf("version %d:\n got %s\nwant %s", view.Version, body, ref)
	}
	if kappa := want(view.Version); !slices.Equal(view.Tau, kappa) {
		return fmt.Errorf("version %d: τ %v, want %v", view.Version, view.Tau, kappa)
	}
	return nil
}

// TestReplicaFirstReadsMatchEncoder: with a primary and a replica, the
// replica's first /decompose?dec=core&tau=true read after every pulled
// batch is what TestDecomposeBodyMatchesEncoder requires of a body, with
// a cold peel of the edited graph as its τ; a batch that kept the vertex
// count is read from a memo spliced from the previous version's.
func TestReplicaFirstReadsMatchEncoder(t *testing.T) {
	pts, _ := newPrimary(t, 1)
	rts, rs := newReplica(t, pts.URL, 1)
	g := graph.PowerLawCluster(300, 10, 0.5, 5) // κ = 10: a removal crosses to 9
	if resp := doJSON(t, "POST", pts.URL+"/graphs/g", strings.NewReader(edgeListBody(g)), nil); resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	pull(t, rts.URL, http.StatusOK)
	rng := rand.New(rand.NewSource(9))
	spliced := 0
	for batch := range 16 {
		if batch > 0 {
			req, edits := randomBatch(rng, g, false)
			g = graph.ApplyEdits(g, req.GrowTo, edits)
			if resp := postJSON(t, pts.URL+"/graphs/g/edges", req, nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("mutate: status %d", resp.StatusCode)
			}
			pull(t, rts.URL, http.StatusOK)
		}
		e, _ := rs.reg.get("g")
		if res, ok := rs.cache.peek(keyOf(e, nucleus.FamilyCore, localhi.AND, 0)); ok && res.tail.base != nil {
			spliced++
		}
		want := peel.Run(nucleus.NewCore(g)).Kappa
		body := serveBody(t, rs, "GET", "/graphs/g/decompose?dec=core&tau=true", "")
		if err := coreBody(body, func(uint64) []int32 { return want }); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
	}
	if spliced < 8 {
		t.Fatalf("%d of 15 first reads spliced, want most", spliced)
	}
}

// TestSplicedFirstReadsConcurrent has readers of a graph's core body run
// beside its batches, so under -race a version's first reads, spliced or
// encoded, race each other, the reads of its predecessor still in flight
// and the install that checks whether that predecessor was read: every
// body is the encoder's for the κ the node published at its version.
func TestSplicedFirstReadsConcurrent(t *testing.T) {
	s := New(Config{Workers: 2})
	t.Cleanup(s.Close)
	g := graph.PowerLawCluster(300, 10, 0.5, 7)
	serveBody(t, s, "POST", "/graphs/g", edgeListBody(g))
	const path = "/graphs/g/decompose?dec=core&tau=true"
	serveBody(t, s, "GET", path, "") // a cached core result: batches seed core
	e, _ := s.reg.get("g")
	published := map[uint64][]int32{e.version: peel.Run(nucleus.NewCore(g)).Kappa}

	var done atomic.Bool
	bodies := make([][][]byte, 4)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
				bodies[i] = append(bodies[i], rec.Body.Bytes())
			}
		}()
	}
	rng := rand.New(rand.NewSource(4))
	for range 24 {
		req, _ := randomBatch(rng, e.g, false)
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		serveBody(t, s, "POST", "/graphs/g/edges", string(data))
		e, _ = s.reg.get("g")
		published[e.version] = e.coreKappa
	}
	done.Store(true)
	wg.Wait()
	for i, list := range bodies {
		for _, body := range list {
			if err := coreBody(body, func(v uint64) []int32 { return published[v] }); err != nil {
				t.Fatalf("reader %d: %v", i, err)
			}
		}
	}
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

// BenchmarkFirstRead times the first read of a fresh result with no read
// predecessor to splice, which is what the first read of a version
// published over an unread one pays: the hit of BenchmarkDecomposeHit on a
// result whose tail memo is new, so the read counts the histogram, encodes
// it and the cells, and writes the body.
func BenchmarkFirstRead(b *testing.B) {
	s, w, r, res := hitFixture(b)
	b.ReportAllocs()
	for range b.N {
		res.tail = new(tailMemo)
		s.ServeHTTP(w, r)
	}
}

// BenchmarkNextVersionRead times the first read of the version after a
// read one, which is what every read of a replica that serves each new
// version is: BenchmarkFirstRead's read on a result installed over the read
// result with 16 of its values moved by one, so the read splices the
// predecessor's body instead of encoding all of it.
func BenchmarkNextVersionRead(b *testing.B) {
	s, w, r, prev := hitFixture(b)
	next := *prev
	next.Kappa = slices.Clone(prev.Kappa)
	var cores []store.CoreChange
	for i := range 16 {
		v := uint32(i*len(next.Kappa)/16 + 7)
		next.Kappa[v]++
		cores = append(cores, store.CoreChange{V: v, Kappa: next.Kappa[v]})
	}
	next.MaxKappa = maxOf(next.Kappa)
	e, _ := s.reg.get("g")
	s.cache.put(keyOf(e, nucleus.FamilyTruss, localhi.AND, 0), &next)
	if tailOver(prev, cores, len(next.Kappa)).base == nil {
		b.Fatal("the next version's memo does not splice its read predecessor's")
	}
	b.ReportAllocs()
	for range b.N {
		next.tail = tailOver(prev, cores, len(next.Kappa))
		s.ServeHTTP(w, r)
	}
}
