package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"time"
)

// jobJSON is the part of the server's job JSON the benchmark reads.
type jobJSON struct {
	ID       int     `json:"id"`
	State    string  `json:"state"`
	Error    string  `json:"error"`
	Reads    int     `json:"reads"`
	CacheHit bool    `json:"cache_hit"`
	Fallback bool    `json:"fallback"`
	MapMs    float64 `json:"map_ms"`
	Worker   string  `json:"worker"` // owning worker, set by a gateway
}

// request is one generated job, ready to post.
type request struct {
	p           *payload
	body        []byte
	contentType string
}

// newRequest renders a payload as the multipart form POST /jobs takes.
func newRequest(w *workload, p *payload) (*request, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for k, v := range w.form() {
		if err := mw.WriteField(k, v); err != nil {
			return nil, err
		}
	}
	for _, part := range []struct {
		field, file string
		data        []byte
	}{{"reference", "ref.fa", p.refFA}, {"reads", "reads.fq", p.readsFQ}} {
		fw, err := mw.CreateFormFile(part.field, part.file)
		if err != nil {
			return nil, err
		}
		if _, err := fw.Write(part.data); err != nil {
			return nil, err
		}
	}
	if err := mw.Close(); err != nil {
		return nil, err
	}
	return &request{p: p, body: buf.Bytes(), contentType: mw.FormDataContentType()}, nil
}

// outcome is what one served job did, as the client saw it.
type outcome struct {
	index    int
	submit   time.Duration // POST /jobs round trip
	firstRow time.Duration // submit start to first result row
	done     time.Duration // submit start to the terminal stream event
	end      time.Time
	rows     int
	known    int
	correct  int
	job      jobJSON
	err      error // refused (429/503), failed, or failed a check
}

func (o *outcome) failed() bool { return o.err != nil }

type client struct {
	http *http.Client
	tr   *tracer
	mem  bool
	// fpga marks jobs whose map_ms must be modeled device time; a CPU
	// fallback mixes in wall-clock time and fails the job.
	fpga bool
}

// run submits one job to base, follows its NDJSON result stream to the
// terminal event checking rows against ground truth, then reads the job's
// final JSON.
func (c *client) run(ctx context.Context, base string, rq *request) outcome {
	o := outcome{index: rq.p.index}
	root := c.tr.begin("client.job", 0, o.index)
	defer func() { c.tr.end(root, rq.p.reads()) }()
	start := time.Now()

	sp := c.tr.begin("http.submit", root, o.index)
	job, status, err := c.submit(ctx, base, rq)
	c.tr.end(sp, 1)
	o.submit = time.Since(start)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		o.err = fmt.Errorf("refused: HTTP %d", status)
		return o
	}
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	o.job = job

	sp = c.tr.begin("http.stream", root, o.index)
	chk := newRowChecker(rq.p, c.mem)
	kind, err := c.stream(ctx, base, job.ID, start, &o, chk)
	c.tr.end(sp, chk.rows)
	o.done = time.Since(start)
	o.end = time.Now()
	o.rows, o.known, o.correct = chk.rows, chk.known, chk.correct
	if err != nil {
		o.err = fmt.Errorf("stream: %w", err)
		return o
	}

	sp = c.tr.begin("http.status", root, o.index)
	final, err := c.status(ctx, base, job.ID)
	c.tr.end(sp, 1)
	if err != nil {
		o.err = fmt.Errorf("status: %w", err)
		return o
	}
	final.Worker = job.Worker
	o.job = final
	switch {
	case kind != "done" || final.State != "done":
		o.err = fmt.Errorf("job ended %s/%s: %s", kind, final.State, final.Error)
	case c.fpga && final.Fallback:
		o.err = errors.New("fpga job fell back to the CPU: its map_ms mixes modeled and wall-clock time")
	default:
		o.err = chk.finish()
	}
	return o
}

func (c *client) submit(ctx context.Context, base string, rq *request) (jobJSON, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(rq.body))
	if err != nil {
		return jobJSON{}, 0, err
	}
	req.Header.Set("Content-Type", rq.contentType)
	req.Header.Set("Accept", "application/json")
	var job jobJSON
	status, err := c.doJSON(req, &job)
	return job, status, err
}

func (c *client) status(ctx context.Context, base string, id int) (jobJSON, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/api/jobs/%d", base, id), nil)
	if err != nil {
		return jobJSON{}, err
	}
	req.Header.Set("Accept", "application/json")
	var job jobJSON
	_, err = c.doJSON(req, &job)
	return job, err
}

// doJSON sends req and decodes a 200 response into dst.
func (c *client) doJSON(req *http.Request, dst any) (int, error) {
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return resp.StatusCode, json.Unmarshal(body, dst)
}

var eventPrefix = []byte(`{"event":`)

// stream reads the job's NDJSON stream, feeding result rows to chk, and
// returns the terminal event's kind.
func (c *client) stream(ctx context.Context, base string, id int, start time.Time, o *outcome, chk *rowChecker) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/api/jobs/%d/stream", base, id), nil)
	if err != nil {
		return "", err
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := c.http.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	br := bufio.NewReaderSize(resp.Body, 1<<16)
	for {
		line, err := br.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			// A row wider than the buffer: collect the rest of it.
			rest, rerr := br.ReadBytes('\n')
			line, err = append(append([]byte(nil), line...), rest...), rerr
		}
		if err != nil {
			return "", fmt.Errorf("stream ended without a terminal event after %d rows: %w", chk.rows, err)
		}
		line = bytes.TrimRight(line, "\n")
		if !bytes.HasPrefix(line, eventPrefix) {
			if chk.rows == 0 {
				o.firstRow = time.Since(start)
			}
			chk.row(line)
			continue
		}
		var ev struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			return "", fmt.Errorf("bad stream event %q: %w", line, err)
		}
		if ev.Event == "qc_reject" {
			return "", fmt.Errorf("unexpected QC reject: %s", line)
		}
		return ev.Event, nil
	}
}
