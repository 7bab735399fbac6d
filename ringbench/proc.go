package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env owns everything one benchmark invocation starts or creates: the
// work directory under .bench_build/runs and every child process.
// cleanup reaps the children and removes the directory; main calls it on
// every exit path, signals included.
type env struct {
	root string // checkout root
	bin  string // directory holding the built binaries
	dir  string // per-invocation work directory

	mu    sync.Mutex
	procs []*proc
	seq   int

	// refs are the reference loop times (seconds) taken so far, the
	// last one at refAt.
	refs  []float64
	refAt time.Time
}

func newEnv(root, bin string) (*env, error) {
	base := filepath.Join(root, ".bench_build", "runs")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, bin: bin, dir: dir}, nil
}

// mkdir returns a fresh, empty directory inside the work directory.
func (e *env) mkdir(label string) (string, error) {
	e.mu.Lock()
	e.seq++
	n := e.seq
	e.mu.Unlock()
	d := filepath.Join(e.dir, fmt.Sprintf("%s-%d", label, n))
	return d, os.MkdirAll(d, 0o755)
}

// cleanup stops every child that is still running and deletes the
// work directory.
func (e *env) cleanup() {
	e.mu.Lock()
	procs := append([]*proc(nil), e.procs...)
	e.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
	_ = os.RemoveAll(e.dir)
}

// proc is one child process. Its combined output goes to a log file in
// the work directory so worker exit lines can be read back.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	done    chan struct{}

	once  sync.Once
	hwmKB int64
}

// start launches one of the built binaries.
func (e *env) start(name, binary string, args ...string) (*proc, error) {
	logPath := filepath.Join(e.dir, fmt.Sprintf("%s-%d.log", name, time.Now().UnixNano()))
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.bin, binary), args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.Dir = e.dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", binary, err)
	}
	p := &proc{name: name, cmd: cmd, logPath: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		f.Close()
		close(p.done)
	}()
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()
	return p, nil
}

// stop records the process's peak resident set, asks it to drain with
// SIGTERM, and kills it if it has not exited within ten seconds. It
// returns once the process has been reaped; later calls are no-ops.
func (p *proc) stop() {
	p.once.Do(func() {
		p.hwmKB = vmHWM(p.cmd.Process.Pid)
		_ = p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			_ = syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
			<-p.done
		}
	})
}

// exited reports whether the process has ended on its own.
func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// log returns what the process has written so far.
func (p *proc) log() string {
	b, _ := os.ReadFile(p.logPath)
	return string(b)
}

// vmHWM reads a live process's peak resident set in KiB from
// /proc/<pid>/status (0 when unavailable).
func vmHWM(pid int) int64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// daemon is a running ringsimd plus the workers attached to it.
type daemon struct {
	main    *proc
	workers []*proc
	url     string
	pprof   string // pprof listener base URL, empty when disabled
	c       *client
}

// daemonOpts selects how a ringsimd instance is launched.
type daemonOpts struct {
	cacheDir string
	pprof    bool
	// fleetWorkers > 0 starts a dispatch-only fleet coordinator and that
	// many ringsim-worker processes of capacity 1.
	fleetWorkers int
}

const fleetSecret = "ringbench"

// startDaemon launches ringsimd (and its fleet workers) and returns once
// /healthz answers and every worker has registered. The returned
// duration is the set-up time: launch until ready.
func (e *env) startDaemon(o daemonOpts) (*daemon, time.Duration, error) {
	t0 := time.Now()
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", addr, "-cache-dir", o.cacheDir}
	d := &daemon{url: "http://" + addr}
	if o.pprof {
		paddr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		args = append(args, "-pprof-addr", paddr)
		d.pprof = "http://" + paddr
	}
	if o.fleetWorkers > 0 {
		args = append(args, "-fleet", "-workers", "-1", "-fleet-secret", fleetSecret)
	} else {
		args = append(args, "-workers", "2")
	}
	if d.main, err = e.start("ringsimd", "ringsimd", args...); err != nil {
		return nil, 0, err
	}
	d.c = newClient(d.url)
	if err := d.waitReady(); err != nil {
		d.stop()
		return nil, 0, err
	}
	for i := 0; i < o.fleetWorkers; i++ {
		w, err := e.start(fmt.Sprintf("worker%d", i), "ringsim-worker",
			"-coordinator", d.url, "-fleet-secret", fleetSecret, "-name", fmt.Sprintf("w%d", i),
			"-capacity", "1", "-poll", "10ms")
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		d.workers = append(d.workers, w)
	}
	if o.fleetWorkers > 0 {
		if err := d.waitWorkers(o.fleetWorkers); err != nil {
			d.stop()
			return nil, 0, err
		}
	}
	return d, time.Since(t0), nil
}

// setupSamples is how many launches set-up time is the median of.
const setupSamples = 21

// moreSetups launches and stops the daemon until have+extra reaches
// setupSamples, and returns the extra set-up times in seconds. dir is the
// cache directory to start over; empty means a fresh empty one each time.
func (e *env) moreSetups(o daemonOpts, dir string, have int) ([]float64, error) {
	var out []float64
	for have+len(out) < setupSamples {
		o.cacheDir = dir
		if dir == "" {
			d, err := e.mkdir("setup")
			if err != nil {
				return nil, err
			}
			o.cacheDir = d
		}
		d, setup, err := e.startDaemon(o)
		if err != nil {
			return nil, err
		}
		d.stop()
		out = append(out, setup.Seconds())
	}
	return out, nil
}

// waitReady polls /healthz every 2 ms until it answers 200.
func (d *daemon) waitReady() error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if d.main.exited() {
			return fmt.Errorf("ringsimd exited during start-up:\n%s", d.main.log())
		}
		resp, err := d.c.hc.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return errors.New("ringsimd not ready after 60s")
}

// waitWorkers polls /metrics until n fleet workers have registered.
func (d *daemon) waitWorkers(n int) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		m, err := d.c.scrape()
		if err == nil && m["ringsimd_fleet_workers"] >= float64(n) {
			return nil
		}
		for _, w := range d.workers {
			if w.exited() {
				return fmt.Errorf("%s exited during start-up:\n%s", w.name, w.log())
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%d fleet workers not registered after 60s", n)
}

// stop drains the workers, then the daemon, and returns their summed
// peak resident set in MiB.
func (d *daemon) stop() float64 {
	var kb int64
	for _, w := range d.workers {
		w.stop()
		kb += w.hwmKB
	}
	d.main.stop()
	kb += d.main.hwmKB
	d.c.hc.CloseIdleConnections()
	return float64(kb) / 1024
}
