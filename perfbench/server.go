package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

// server is one dmgm-serve process started with its default flags, except
// that it listens on a free localhost port.
type server struct {
	cmd      *exec.Cmd
	base     string
	client   *client.Client
	http     *http.Client
	readDone chan struct{} // closed when the process's stderr reaches EOF
}

// startServer starts bin and returns once it is listening and healthy. Its
// stderr is copied to logPath.
func startServer(ctx context.Context, bin, logPath string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = childAttr()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, readDone: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		defer close(s.readDone)
		defer logf.Close()
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if _, rest, ok := strings.Cut(line, "listening on http://"); ok {
				addr, _, _ := strings.Cut(rest, " ")
				select {
				case addrCh <- addr:
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrCh:
		s.base = "http://" + addr
	case <-s.readDone:
		s.stop()
		return nil, fmt.Errorf("%s exited before listening (log: %s)", bin, logPath)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not report a listening address within 30s", bin)
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	s.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	s.client = client.New(s.base)
	s.client.HTTP = s.http
	if err := s.client.WaitReady(ctx, 30*time.Second); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop drains the server with SIGTERM, killing it if it has not exited
// within 30 seconds, and waits for the process to end.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is what we want
	select {
	case <-s.readDone:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.readDone
	}
	_ = s.cmd.Wait() // the exit status of a drained daemon carries nothing we use
	if s.http != nil {
		s.http.CloseIdleConnections()
	}
}

// submit posts a pre-encoded job request and decodes the answer.
func (s *server) submit(ctx context.Context, body []byte) (*service.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<10))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var out service.Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return &out, nil
}

// peakRSSMB reads the running server's peak resident set size (VmHWM).
// It is read at the end of the window, so shutdown does not count.
func (s *server) peakRSSMB() (float64, error) {
	path := fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid)
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}
