package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// tinyStream is a 3-star job small enough to stream in milliseconds.
func tinyStream(enc string) streamConfig {
	return streamConfig{Points: []int{3, 4, 5}, Loop: "none", Split: 1, Workers: 2, Enc: enc}
}

// tamperEdges rewrites every edge-stream response body with f.
func tamperEdges(f func([]byte) []byte) func(http.Handler) http.Handler {
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasSuffix(r.URL.Path, "/edges") {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			_, _ = w.Write(f(rec.Body.Bytes()))
		})
	}
}

func TestStreamOpsAreChecked(t *testing.T) {
	flipLast := func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b }
	truncate := func(b []byte) []byte { return b[:len(b)/2] }
	refuse := func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost {
				http.Error(w, `{"error":"busy"}`, http.StatusTooManyRequests)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	for _, c := range []struct {
		name       string
		enc        string
		wrap       func(http.Handler) http.Handler
		wantFailed int
	}{
		{"clean delta", "delta", nil, 0},
		{"clean fixed", "fixed", nil, 0},
		{"flipped trailer byte delta", "delta", tamperEdges(flipLast), 2},
		{"flipped trailer byte fixed", "fixed", tamperEdges(flipLast), 2},
		{"truncated frame delta", "delta", tamperEdges(truncate), 2},
		{"truncated frame fixed", "fixed", tamperEdges(truncate), 2},
		{"429 on submit", "delta", refuse, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			b, err := newStreamBench(tinyStream(c.enc), c.wrap)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			res := runLoop(b, 0, 2, nil, 0)
			if res.attempted != 2 || res.failed != c.wantFailed {
				t.Fatalf("attempted %d, failed %d, want 2 and %d; errors %v", res.attempted, res.failed, c.wantFailed, res.errs)
			}
			if got := len(res.samples); got != 2-c.wantFailed {
				t.Errorf("%d samples kept from %d good ops", got, 2-c.wantFailed)
			}
			for _, s := range res.samples {
				if s.dur <= 0 || s.firstEdge <= 0 || s.firstEdge > s.dur {
					t.Errorf("sample timings %+v", s)
				}
			}
		})
	}
}

func TestDesignOpsAreChecked(t *testing.T) {
	pool, err := designPool(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, pd := range pool {
		keys[pd.req.Key()] = true
	}
	if len(pool) != 64 || len(keys) != 64 {
		t.Fatalf("pool of %d designs, %d distinct", len(pool), len(keys))
	}
	b, err := newDesignBench(1, pool)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if res := runLoop(b, 0, 2*len(pool), nil, 0); res.failed != 0 {
		t.Fatalf("clean design ops failed: %v", res.errs)
	}
	// An oracle that disagrees with the service must fail the op.
	for i := range b.pool {
		b.pool[i].want.Edges += "0"
	}
	if res := runLoop(b, 0, 3, nil, 0); res.failed != 3 {
		t.Fatalf("wrong answers passed: %d of 3 failed", res.failed)
	}
}
