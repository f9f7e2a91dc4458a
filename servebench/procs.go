package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one launched server process.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string
	done chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// launch starts bin with args plus -addr on a fresh loopback port,
// logging to dir/<name>.log.
func launch(dir, name, bin string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	return p, nil
}

// stop sends SIGTERM, waits for a clean drain, and kills the process if
// it has not exited within the grace period.
func (p *proc) stop() {
	if p == nil {
		return
	}
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (p *proc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", p.cmd.Process.Pid)
}

// cpuMs reads the CPU time (user + system, all threads) the process
// has used, in ms. Linux counts it in ticks of 10 ms (USER_HZ 100), and
// leaves out time the hypervisor stole.
func (p *proc) cpuMs() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", p.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", p.cmd.Process.Pid)
	}
	return (ut + st) * 10, nil
}

// controlClient serves readiness polls and stats scrapes; it is kept
// apart from the load generator's connections.
var controlClient = &http.Client{Timeout: 5 * time.Second}

func getJSON(url string, v any) (int, error) {
	resp, err := controlClient.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if v != nil && len(b) > 0 {
		if err := json.Unmarshal(b, v); err != nil {
			return resp.StatusCode, fmt.Errorf("%s: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}

// waitFor polls cond every few milliseconds until it holds, the
// processes die, or the timeout passes.
func waitFor(ctx context.Context, what string, timeout time.Duration, procs []*proc, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		for _, p := range procs {
			if !p.alive() {
				return fmt.Errorf("%s exited while waiting for %s", p.name, what)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v waiting for %s", timeout, what)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	return nil
}

// readyz is the part of a member's /readyz the benchmark reads.
type readyz struct {
	Ready      bool `json:"ready"`
	Generation *struct {
		StoreGeneration int64  `json:"store_generation"`
		CorpusSHA256    string `json:"corpus_sha256"`
	} `json:"generation"`
	Routable int `json:"routable"` // the front's count
}

func (r readyz) storeGen() (int64, string) {
	if r.Generation == nil {
		return 0, ""
	}
	return r.Generation.StoreGeneration, r.Generation.CorpusSHA256
}

// serverStats is the part of hftserve's /statsz the benchmark reads.
type serverStats struct {
	Engine struct {
		Hits, Misses, Coalesced int64
	} `json:"engine"`
}

// cpuTicks reads the host-wide CPU counters from /proc/stat: all ticks
// and the ticks stolen by the hypervisor (0, 0 where unavailable).
func cpuTicks() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
