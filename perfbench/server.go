package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/service"
)

// server is a service.Service handler served on a 127.0.0.1 listener inside
// this process, with the one client that drives it: a single connection and
// one request in flight.
type server struct {
	svc    *service.Service
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

// newServer starts the service with cfg. wrap, when non-nil, wraps the
// handler (tests use it to tamper with responses).
func newServer(cfg service.Config, wrap func(http.Handler) http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := service.New(cfg)
	h := svc.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &server{
		svc:    svc,
		hs:     &http.Server{Handler: h},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	return s, nil
}

// close stops the listener, waits for the serving goroutine and the
// service's jobs to end.
func (s *server) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close()
	}
	<-s.served
	s.svc.Close()
}

// do sends one request and decodes a JSON response into out. Any status
// other than want is an error carrying the service's error text.
func (s *server) do(method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp, want); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
	}
	_, err = io.Copy(io.Discard, resp.Body) // keep the connection reusable
	return err
}

// checkStatus turns an unexpected status into an error with the body's
// error text; 429 and every other non-want status are failures alike.
func checkStatus(resp *http.Response, want int) error {
	if resp.StatusCode == want {
		return nil
	}
	var e struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e)
	return fmt.Errorf("status %s (want %d): %s", resp.Status, want, e.Error)
}

// scrape reads the named counters from /metrics.
func (s *server) scrape(names ...string) (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp, http.StatusOK); err != nil {
		return nil, fmt.Errorf("GET /metrics: %w", err)
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || !want[name] {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
		out[name] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, errors.New("metric " + n + " missing from /metrics")
		}
	}
	return out, nil
}
