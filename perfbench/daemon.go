package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running mocktailsd process and the single keep-alive
// HTTP connection the closed loop drives it through.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	args   []string
	client *http.Client
	exited chan struct{}

	// Response buffers, reused across the closed loop's ops.
	buf     bytes.Buffer
	scratch []byte
	head    [streamHeaderBytes]byte

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

var (
	liveMu  sync.Mutex
	live    = map[*daemon]bool{}
	envDrop = []string{"GOMAXPROCS=", "GOGC=", "GOMEMLIMIT=", "GODEBUG=", "MOCKTAILS_PARALLELISM="}
)

// daemonEnv is the environment without the knobs that would move the
// daemon off its defaults: worker counts follow GOMAXPROCS = nproc.
func daemonEnv() []string {
	var env []string
next:
	for _, kv := range os.Environ() {
		for _, p := range envDrop {
			if strings.HasPrefix(kv, p) {
				continue next
			}
		}
		env = append(env, kv)
	}
	return env
}

// freePort returns a loopback port that was free a moment ago.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon execs bin on a free loopback port and returns once
// /healthz answers 200. Only -addr (and the given extra flags) are set;
// every other flag keeps its default.
func startDaemon(bin string, extra ...string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Env = daemonEnv()
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, args: args, exited: make(chan struct{})}
	liveMu.Lock()
	live[d] = true
	liveMu.Unlock()
	go func() {
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			d.mu.Lock()
			if len(d.tail) >= 20 {
				d.tail = d.tail[1:]
			}
			d.tail = append(d.tail, sc.Text())
			d.mu.Unlock()
		}
		io.Copy(io.Discard, stderr)
		cmd.Wait()
		close(d.exited)
	}()

	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
	give := time.Now().Add(30 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("mocktailsd exited during start-up: %s", d.stderrTail())
		default:
		}
		if time.Now().After(give) {
			d.stop()
			return nil, fmt.Errorf("mocktailsd /healthz never answered 200: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *daemon) stderrTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// stop sends SIGTERM (graceful drain), escalates to SIGKILL after 10 s,
// and waits for the process to end.
func (d *daemon) stop() {
	liveMu.Lock()
	delete(live, d)
	liveMu.Unlock()
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// stopAllDaemons stops every daemon this process started and has not
// stopped yet.
func stopAllDaemons() {
	liveMu.Lock()
	ds := make([]*daemon, 0, len(live))
	for d := range live {
		ds = append(ds, d)
	}
	liveMu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// peakRSSMiB reads the daemon's high-water resident set (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// reply is a response as the checks see it. body holds the whole body
// when it was kept, else only its first bytes (the stream header); n is
// the body length either way.
type reply struct {
	*http.Response
	body []byte
	n    int64
}

// post sends one request and reads the response to its last byte. A
// kept body lands in the daemon's reusable buffer; any other body
// streams through a small scratch buffer, so an unkept multi-MB stream
// costs the client one pass over the socket and no memory traffic
// beyond it.
func (d *daemon) post(path, ctype string, body []byte, hdr http.Header, keep bool) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, d.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", ctype)
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{Response: resp}
	if keep {
		d.buf.Reset()
		if resp.ContentLength > 0 {
			d.buf.Grow(int(resp.ContentLength))
		}
		r.n, err = d.buf.ReadFrom(resp.Body)
		r.body = d.buf.Bytes()
		return r, err
	}
	if d.scratch == nil {
		d.scratch = make([]byte, 64<<10)
	}
	r.body = d.head[:0]
	for {
		k, rerr := resp.Body.Read(d.scratch)
		if room := cap(d.head) - len(r.body); room > 0 {
			r.body = append(r.body, d.scratch[:min(k, room)]...)
		}
		r.n += int64(k)
		if rerr == io.EOF {
			return r, nil
		}
		if rerr != nil {
			return r, rerr
		}
	}
}

// getJSON fetches a daemon endpoint and decodes its JSON body into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// memStats is the part of the expvar memstats the traced run reads.
type memStats struct {
	NumGC      uint64 `json:"NumGC"`
	TotalAlloc uint64 `json:"TotalAlloc"`
}

// readMemStats reads the daemon's runtime memstats from /debug/vars
// (requires -debug).
func (d *daemon) readMemStats() (memStats, error) {
	var v struct {
		MemStats memStats `json:"memstats"`
	}
	err := d.getJSON("/debug/vars", &v)
	return v.MemStats, err
}
