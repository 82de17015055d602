package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
)

// newHTTPClient returns a keep-alive client holding at most conns idle
// connections per host: the workloads never open more connections than P.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConns: 4 * conns, MaxIdleConnsPerHost: conns}}
}

// call performs one request over TCP and returns the whole body. Any status
// other than want is an error: a refused or failed request is a failed op.
func call(c *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, url, resp.StatusCode, want, data)
	}
	return data, nil
}

// callJSON is call followed by decoding the body into out.
func callJSON(c *http.Client, method, url string, body []byte, want int, out any) error {
	data, err := call(c, method, url, body, want)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	return nil
}

// serveLocal hands one request straight to a handler, with no TCP and no
// client: what remains is the handler's own time.
func serveLocal(h http.Handler, method, path string, body []byte, want int) ([]byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != want {
		return nil, fmt.Errorf("%s %s (in process): status %d, want %d: %.200s", method, path, rec.Code, want, rec.Body.Bytes())
	}
	return rec.Body.Bytes(), nil
}

// coreLookupPath is a /core point lookup of count seeded random vertices.
func coreLookupPath(rng *rand.Rand, n, count int) string {
	var sb strings.Builder
	sb.WriteString("/graphs/g/core?")
	for j := 0; j < count; j++ {
		if j > 0 {
			sb.WriteByte('&')
		}
		sb.WriteString("v=")
		sb.WriteString(strconv.Itoa(rng.Intn(n)))
	}
	return sb.String()
}

// tauHash fingerprints a κ/τ array the way it appears inside a response:
// the FNV-1a hash of its JSON array body ("3,3,2,…"). Hashing the bytes of
// the response against this keeps the oracle out of the way of the server
// it shares two cores with: no 50 k-int decode per request.
func tauHash(tau []int32) uint64 {
	buf := make([]byte, 0, 4*len(tau))
	for i, v := range tau {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	h := fnv.New64a()
	h.Write(buf)
	return h.Sum64()
}

// responseTauHash hashes the "tau" array of a /decompose response body.
func responseTauHash(body []byte) (uint64, error) {
	const key = `"tau":[`
	start := bytes.LastIndex(body, []byte(key))
	if start < 0 {
		return 0, fmt.Errorf("response carries no tau array: %.120s", body)
	}
	start += len(key)
	end := bytes.IndexByte(body[start:], ']')
	if end < 0 {
		return 0, fmt.Errorf("response tau array is not closed")
	}
	h := fnv.New64a()
	h.Write(body[start : start+end])
	return h.Sum64(), nil
}

// nodeStats is the part of a node's /stats the checks and counters read.
type nodeStats struct {
	Jobs struct {
		Submitted int64 `json:"submitted"`
		Shed      int64 `json:"shed"`
	} `json:"jobs"`
	Cache struct {
		Hits    int64 `json:"hits"`
		Misses  int64 `json:"misses"`
		Lookups int64 `json:"lookups"`
	} `json:"cache"`
	Mutations struct {
		WarmRuns int64 `json:"warmRuns"`
		ColdRuns int64 `json:"coldRuns"`
	} `json:"mutations"`
	Persistence struct {
		ReplayedBatches int64 `json:"replayedBatches"`
	} `json:"persistence"`
	Replication struct {
		BytesPulled    int64 `json:"bytesPulled"`
		BatchesApplied int64 `json:"batchesApplied"`
	} `json:"replication"`
}

func statsOf(h http.Handler) (nodeStats, error) {
	var st nodeStats
	data, err := serveLocal(h, "GET", "/stats", nil, http.StatusOK)
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("/stats: %w", err)
	}
	return st, nil
}
