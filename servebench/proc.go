package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one bwaver-server child process.
type proc struct {
	cmd      *exec.Cmd
	url      string
	stateDir string
	log      *os.File
	copied   chan struct{} // closed once stdout is drained into the log
}

const listenBanner = "listening on "

// startProc starts the server with its default flags plus a listen address,
// a -state-dir under dir (so journal and spill fsyncs are on the path) and
// args, and waits for it to print its bound address.
func startProc(bin, dir, name string, args ...string) (*proc, error) {
	state := filepath.Join(dir, name+"-state")
	if err := os.MkdirAll(state, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-state-dir", state}, args...)...)
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{cmd: cmd, stateDir: state, log: logf, copied: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.copied)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if i := strings.Index(line, listenBanner); i >= 0 && !sent {
				addr <- strings.TrimSpace(line[i+len(listenBanner):])
				sent = true
			}
		}
		io.Copy(logf, out)
	}()
	select {
	case a := <-addr:
		p.url = "http://" + a
		return p, nil
	case <-p.copied:
		p.stop()
		return nil, fmt.Errorf("%s exited before listening; see %s", name, logf.Name())
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not report a listen address within 30s", name)
	}
}

// peakRSS returns the process's VmHWM in bytes.
func (p *proc) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseInt(f[1], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// stop asks the server to drain and exit, kills it if it has not exited
// within 20 s, and waits for it either way.
func (p *proc) stop() {
	exited := make(chan struct{})
	go func() {
		p.cmd.Wait()
		close(exited)
	}()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-exited:
	case <-time.After(20 * time.Second):
		p.cmd.Process.Kill()
		<-exited
	}
	<-p.copied
	p.log.Close()
}

// cluster is the set of server processes one run serves from: a standalone
// server, or a gateway fronting two workers.
type cluster struct {
	front string // URL clients submit to
	procs []*proc
}

func startCluster(ctx context.Context, bin, dir string, gateway bool) (*cluster, error) {
	if !gateway {
		p, err := startProc(bin, dir, "server")
		if err != nil {
			return nil, err
		}
		return &cluster{front: p.url, procs: []*proc{p}}, nil
	}
	gw, err := startProc(bin, dir, "gateway", "-mode=gateway")
	if err != nil {
		return nil, err
	}
	c := &cluster{front: gw.url, procs: []*proc{gw}}
	for i := 1; i <= 2; i++ {
		wk, err := startProc(bin, dir, fmt.Sprintf("worker%d", i), "-mode=worker", "-gateway-url="+gw.url)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.procs = append(c.procs, wk)
	}
	if err := waitHealthyWorkers(ctx, gw.url, 2); err != nil {
		c.stop()
		return nil, err
	}
	return c, nil
}

// waitHealthyWorkers polls a gateway's health until n workers are routable.
func waitHealthyWorkers(ctx context.Context, gw string, n int) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var h struct {
			Healthy int `json:"workers_healthy"`
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, gw+"/api/health", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if h.Healthy >= n {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	return fmt.Errorf("gateway %s did not report %d healthy workers within 30s", gw, n)
}

// peakRSS is the highest VmHWM among the cluster's processes.
func (c *cluster) peakRSS() (int64, error) {
	var peak int64
	for _, p := range c.procs {
		v, err := p.peakRSS()
		if err != nil {
			return 0, err
		}
		peak = max(peak, v)
	}
	return peak, nil
}

// stateBytes is the bytes the cluster has written under its state dirs.
func (c *cluster) stateBytes() int64 {
	var n int64
	for _, p := range c.procs {
		filepath.WalkDir(p.stateDir, func(_ string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				if info, err := d.Info(); err == nil {
					n += info.Size()
				}
			}
			return nil
		})
	}
	return n
}

// stop stops every process, workers before the gateway.
func (c *cluster) stop() {
	for i := len(c.procs) - 1; i >= 0; i-- {
		c.procs[i].stop()
	}
}
