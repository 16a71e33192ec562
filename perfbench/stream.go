package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/gen"
	"repro/internal/graphio"
	"repro/internal/service"
)

// streamConfig is one streaming job shape: the design, its split and worker
// count, and the KRNB payload encoding the client asks for.
type streamConfig struct {
	Points  []int  `json:"points"`
	Loop    string `json:"loop"`
	Split   int    `json:"split"`
	Workers int    `json:"workers"`
	Enc     string `json:"enc"`
}

// streamBench is the stream-* operation: POST a job, GET its KRNB edge
// stream, decode it with graphio.ReadBinary, and reconcile the decoded
// count and trailer checksum with the closed-form edge count, the job
// status and a gen.CountEdges checksum taken at set-up.
type streamBench struct {
	cfg          streamConfig
	srv          *server
	job          service.JobRequest
	enc          graphio.BinaryEncoding
	wantEdges    int64
	wantChecksum int64
}

func newStreamBench(cfg streamConfig, wrap func(http.Handler) http.Handler) (*streamBench, error) {
	enc := graphio.BinaryDelta
	switch cfg.Enc {
	case "delta":
	case "fixed":
		enc = graphio.BinaryFixed
	default:
		return nil, fmt.Errorf("unknown encoding %q", cfg.Enc)
	}
	d, err := service.DesignRequest{Points: cfg.Points, Loop: cfg.Loop}.Build()
	if err != nil {
		return nil, err
	}
	nnz := d.NumEdges()
	if !nnz.IsInt64() {
		return nil, fmt.Errorf("design %v has %s edges, too many to stream", cfg.Points, nnz)
	}
	g, err := gen.New(d, cfg.Split)
	if err != nil {
		return nil, err
	}
	total, checksum, err := g.CountEdges(context.Background(), cfg.Workers)
	if err != nil {
		return nil, err
	}
	if total != nnz.Int64() {
		return nil, fmt.Errorf("CountEdges enumerated %d edges, closed form says %s", total, nnz)
	}
	srv, err := newServer(service.Config{}, wrap)
	if err != nil {
		return nil, err
	}
	return &streamBench{
		cfg: cfg,
		srv: srv,
		job: service.JobRequest{
			DesignRequest: service.DesignRequest{Points: cfg.Points, Loop: cfg.Loop},
			Workers:       cfg.Workers,
			Split:         cfg.Split,
		},
		enc:          enc,
		wantEdges:    total,
		wantChecksum: checksum,
	}, nil
}

func (b *streamBench) edgesPerOp() int64 { return b.wantEdges }
func (b *streamBench) close()            { b.srv.close() }

// timedReader measures how long its caller sits blocked in Read, and under
// tracing records each Read as a span.
type timedReader struct {
	r      io.Reader
	tr     *tracer
	parent int
	op     int
	wait   time.Duration
}

func (t *timedReader) Read(p []byte) (int, error) {
	sp := t.tr.begin("net.read", t.parent, t.op)
	start := time.Now()
	n, err := t.r.Read(p)
	t.wait += time.Since(start)
	t.tr.end(sp, 0)
	return n, err
}

func (b *streamBench) run(tr *tracer, parent, op int) (sample, error) {
	var s sample
	start := time.Now()

	sp := tr.begin("service.submit", parent, op)
	var st service.JobStatus
	err := b.srv.do(http.MethodPost, "/v1/jobs", b.job, http.StatusCreated, &st)
	tr.end(sp, 0)
	s.submit = time.Since(start)
	if err != nil {
		return s, err
	}
	if st.TotalEdges != b.wantEdges {
		return s, fmt.Errorf("job %s promises %d edges, design has %d", st.ID, st.TotalEdges, b.wantEdges)
	}

	sp = tr.begin("client.stream", parent, op)
	decoded, info, body, err := b.stream(st.ID, tr, sp, op, start, &s)
	tr.end(sp, decoded)
	s.readWait = body.wait
	if err != nil {
		return s, fmt.Errorf("job %s stream: %w", st.ID, err)
	}
	if decoded != b.wantEdges || info.NNZ != b.wantEdges || info.Edges != b.wantEdges {
		return s, fmt.Errorf("job %s: decoded %d edges, header %d, trailer %d; design has %d",
			st.ID, decoded, info.NNZ, info.Edges, b.wantEdges)
	}
	if info.Encoding != b.enc {
		return s, fmt.Errorf("job %s: stream encoding %d, asked for %s", st.ID, info.Encoding, b.cfg.Enc)
	}
	if info.Checksum != b.wantChecksum {
		return s, fmt.Errorf("job %s: trailer checksum %d, CountEdges checksum %d", st.ID, info.Checksum, b.wantChecksum)
	}

	sp = tr.begin("service.status", parent, op)
	var fin service.JobStatus
	err = b.srv.do(http.MethodGet, "/v1/jobs/"+st.ID, nil, http.StatusOK, &fin)
	tr.end(sp, 0)
	if err != nil {
		return s, err
	}
	switch {
	case fin.State != service.StateDone:
		return s, fmt.Errorf("job %s ended %s: %s", st.ID, fin.State, fin.Error)
	case fin.Checksum == nil || *fin.Checksum != info.Checksum:
		return s, fmt.Errorf("job %s: status checksum %v, trailer checksum %d", st.ID, fin.Checksum, info.Checksum)
	case fin.StreamedEdges != b.wantEdges:
		return s, fmt.Errorf("job %s: status streamed %d edges, want %d", st.ID, fin.StreamedEdges, b.wantEdges)
	}
	s.jobEdgesPerSec = fin.EdgesPerSec
	s.dur = time.Since(start)
	return s, nil
}

// stream GETs the job's binary edge stream and decodes it whole, recording
// the time from the op's start to the first decoded edge.
func (b *streamBench) stream(id string, tr *tracer, parent, op int, start time.Time, s *sample) (int64, *graphio.BinaryInfo, *timedReader, error) {
	body := &timedReader{tr: tr, parent: parent, op: op}
	resp, err := b.srv.client.Get(b.srv.base + "/v1/jobs/" + id + "/edges?format=bin&enc=" + b.cfg.Enc)
	if err != nil {
		return 0, nil, body, err
	}
	defer resp.Body.Close()
	if err := checkStatus(resp, http.StatusOK); err != nil {
		return 0, nil, body, err
	}
	if ct := resp.Header.Get("Content-Type"); ct != service.ContentTypeBinary {
		return 0, nil, body, fmt.Errorf("content type %q", ct)
	}
	body.r = resp.Body
	var decoded int64
	info, err := graphio.ReadBinary(context.Background(), body, func(batch []graphio.Edge) error {
		if decoded == 0 {
			s.firstEdge = time.Since(start)
		}
		decoded += int64(len(batch))
		return nil
	})
	if err != nil {
		return decoded, nil, body, err
	}
	// Drain the chunked terminator so the connection is reused.
	if _, err := io.Copy(io.Discard, body); err != nil {
		return decoded, nil, body, err
	}
	return decoded, info, body, nil
}
