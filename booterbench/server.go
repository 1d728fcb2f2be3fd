package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one booterserve process under test.
type server struct {
	cmd     *exec.Cmd
	startAt time.Time // just before exec
	readyAt time.Time // first HTTP answer (and, in collector mode, accepting)
	client  *http.Client
	exited  chan struct{}

	mu        sync.Mutex
	httpAddr  string
	wireAddr  string
	servingAt time.Time // when the "serving" line was read
	lines     []string  // stderr, kept for the drain-summary check
}

// startServer execs booterserve with args and extra environment, and
// starts collecting its stderr. The caller must stop or kill it.
func startServer(b *bench, env []string, args ...string) (*server, error) {
	cmd := exec.Command(filepath.Join(b.binDir(), "booterserve"), args...)
	cmd.Env = append(os.Environ(), env...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	s := &server{
		cmd:    cmd,
		exited: make(chan struct{}),
		client: newClient(),
	}
	s.startAt = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			s.scanLine(sc.Text())
		}
		io.Copy(io.Discard, stderr)
		cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// scanLine records one stderr line and picks the bound addresses out of
// booterserve's "serving" and "collecting sensor sessions" log records.
func (s *server) scanLine(line string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lines = append(s.lines, line)
	switch {
	case strings.Contains(line, "msg=serving "):
		if u := logField(line, "url"); u != "" {
			s.httpAddr = strings.TrimPrefix(u, "http://")
			s.servingAt = time.Now()
		}
	case strings.Contains(line, `msg="collecting sensor sessions"`):
		s.wireAddr = logField(line, "addr")
	}
}

// logField returns the value of key=value in a slog text line (values
// the benchmark reads hold no spaces).
func logField(line, key string) string {
	for _, f := range strings.Fields(line) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			return strings.Trim(v, `"`)
		}
	}
	return ""
}

// logLine returns the first stderr line whose message is msg.
func (s *server) logLine(msg string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.lines {
		if strings.Contains(l, "msg="+msg+" ") || strings.Contains(l, `msg="`+msg+`"`) {
			return l
		}
	}
	return ""
}

// waitReady polls until the server answers /v1/status (and, with
// collector set, has bound its sensor listener) and stamps readyAt.
func (s *server) waitReady(collector bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-s.exited:
			return fmt.Errorf("booterserve exited during start-up: %s", s.tail())
		default:
		}
		s.mu.Lock()
		addr, wire := s.httpAddr, s.wireAddr
		s.mu.Unlock()
		if addr != "" && (!collector || wire != "") {
			resp, err := s.client.Get("http://" + addr + "/v1/status")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					s.readyAt = time.Now()
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("booterserve not ready after %v: %s", timeout, s.tail())
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// setupSeconds is the exec → ready interval.
func (s *server) setupSeconds() float64 { return s.readyAt.Sub(s.startAt).Seconds() }

// serving returns when the harness read the server's "serving" line:
// its HTTP listener is bound, and in replay mode the replay starts
// right after it.
func (s *server) serving() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.servingAt
}

// pid returns the server's process ID.
func (s *server) pid() int { return s.cmd.Process.Pid }

// newClient returns a keep-alive HTTP client holding one connection.
func newClient() *http.Client {
	return &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// get fetches path and returns the status code and body.
func (s *server) get(c *http.Client, path string) (int, []byte, error) {
	return httpGet(c, s.httpAddr, path)
}

// httpGet fetches path from the server at addr.
func httpGet(c *http.Client, addr, path string) (int, []byte, error) {
	resp, err := c.Get("http://" + addr + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// getJSON fetches path, requires 200 and decodes the body into v.
func (s *server) getJSON(path string, v any) error {
	code, body, err := s.get(s.client, path)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %.200s", path, code, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// status is the subset of /v1/status the benchmark reads.
type status struct {
	Sealed      bool    `json:"sealed"`
	Through     *string `json:"through"`
	Final       bool    `json:"final"`
	Start       *string `json:"start"`
	Weeks       int     `json:"weeks"`
	Attacks     int     `json:"attacks"`
	LivePackets uint64  `json:"live_packets"`
	LiveLate    uint64  `json:"live_late"`
}

func (s *server) status() (status, error) {
	var st status
	err := s.getJSON("/v1/status", &st)
	return st, err
}

// sealedIndex returns the index of the last sealed week in the panel, or
// -1 when nothing is sealed yet.
func (st status) sealedIndex() (int, error) {
	if !st.Sealed || st.Through == nil || st.Start == nil {
		return -1, nil
	}
	return weekIndex(*st.Start, *st.Through)
}

// weekIndex counts whole weeks from the panel's start date to week.
func weekIndex(start, week string) (int, error) {
	s, err := time.Parse("2006-01-02", start)
	if err != nil {
		return 0, err
	}
	w, err := time.Parse("2006-01-02", week)
	if err != nil {
		return 0, err
	}
	return int(w.Sub(s) / (7 * 24 * time.Hour)), nil
}

// stop signals the server to shut down gracefully and waits for it to
// exit, killing it after timeout.
func (s *server) stop(timeout time.Duration) error {
	if err := s.cmd.Process.Signal(syscall.SIGINT); err != nil {
		select {
		case <-s.exited:
			return nil
		default:
			return err
		}
	}
	select {
	case <-s.exited:
		if code := s.cmd.ProcessState.ExitCode(); code != 0 {
			return fmt.Errorf("booterserve exited %d: %s", code, s.tail())
		}
		return nil
	case <-time.After(timeout):
		s.kill()
		return fmt.Errorf("booterserve did not exit within %v of SIGINT", timeout)
	}
}

// kill ends the server at once and waits for it; safe after exit.
func (s *server) kill() {
	select {
	case <-s.exited:
		return
	default:
	}
	s.cmd.Process.Kill()
	<-s.exited
}

// tail returns the last stderr lines, for error messages.
func (s *server) tail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	from := len(s.lines) - 3
	if from < 0 {
		from = 0
	}
	return strings.Join(s.lines[from:], " | ")
}
