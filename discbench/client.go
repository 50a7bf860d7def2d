package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"disc/internal/serve"
)

// server is one discserve process started by the benchmark.
type server struct {
	cmd    *exec.Cmd
	base   string        // http://host:port
	copied chan struct{} // closed once its stderr reaches EOF
}

// startServer launches discserve on a free loopback port with one
// worker per CPU of the benchmark host's budget (two) and waits until
// it reports its address.
func startServer(env *runEnv) (*server, error) {
	cmd := exec.Command(filepath.Join(env.bin, "discserve"), "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(serveWorkers))
	cmd.Dir = env.root
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start discserve: %w", err)
	}
	s := &server{cmd: cmd, copied: make(chan struct{})}
	br := bufio.NewReader(stderr)
	line, err := br.ReadString('\n')
	const prefix = "discserve: listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		go func() { _, _ = io.Copy(io.Discard, br); close(s.copied) }()
		s.kill()
		return nil, fmt.Errorf("discserve did not report its address (got %q, %v)", line, err)
	}
	s.base = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	go func() { _, _ = io.Copy(os.Stderr, br); close(s.copied) }()
	return s, nil
}

// serveWorkers is discserve's -workers: one per CPU of the 2-vCPU host
// the benchmark is sized for.
const serveWorkers = 2

// stop asks discserve to drain (SIGTERM) and waits for it; a server
// that has not exited after ten seconds is killed.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	exited := make(chan error, 1)
	go func() {
		<-s.copied
		exited <- s.cmd.Wait()
	}()
	select {
	case err := <-exited:
		if err != nil {
			return fmt.Errorf("discserve exit: %w", err)
		}
		return nil
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("discserve did not drain within 10s; killed")
	}
}

// kill ends the process at once and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.copied
	_ = s.cmd.Wait()
}

// peakRSSMB reads the process's peak resident set (VmHWM) from outside.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// client is one closed-loop user of discserve with its own single
// keep-alive connection.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, tr: tr, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// call makes one request. in is JSON-encoded when non-nil; out is
// either *[]byte (raw body) or a JSON target.
func (c *client) call(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if p, ok := out.(*[]byte); ok {
		*p = raw
		return nil
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

func (c *client) create(req serve.CreateRequest) (serve.SessionInfo, error) {
	var info serve.SessionInfo
	err := c.call("POST", "/v1/sessions", req, &info)
	return info, err
}

func (c *client) step(id string, cycles int) (serve.StepResult, error) {
	var res serve.StepResult
	err := c.call("POST", "/v1/sessions/"+id+"/step", map[string]int{"cycles": cycles}, &res)
	if err == nil && res.CyclesRun != cycles {
		err = fmt.Errorf("step %s: ran %d of %d cycles (status %s %s)", id, res.CyclesRun, cycles, res.Status, res.Error)
	}
	return res, err
}

func (c *client) inspect(id string) (serve.SessionInfo, error) {
	var info serve.SessionInfo
	err := c.call("GET", "/v1/sessions/"+id, nil, &info)
	return info, err
}

func (c *client) snapshot(id string) ([]byte, error) {
	var blob []byte
	err := c.call("GET", "/v1/sessions/"+id+"/snapshot", nil, &blob)
	return blob, err
}

func (c *client) fork(id string) (serve.SessionInfo, error) {
	var info serve.SessionInfo
	err := c.call("POST", "/v1/sessions/"+id+"/fork", nil, &info)
	return info, err
}

func (c *client) remove(id string) error { return c.call("DELETE", "/v1/sessions/"+id, nil, nil) }

func (c *client) metrics() (serve.ServerStats, error) {
	var st serve.ServerStats
	err := c.call("GET", "/v1/metrics", nil, &st)
	return st, err
}

// programRequest is the create body for a generated program.
func programRequest(p Program, withMetrics bool) serve.CreateRequest {
	return serve.CreateRequest{Program: p.Source, Start: p.Start, Metrics: withMetrics}
}
