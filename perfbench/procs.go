package main

import (
	"bufio"
	"context"
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

// proc is one server process the benchmark started.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{} // closed once Wait returns
	log  *os.File
}

// servers is the set of processes serving one workload: one process, or
// a coordinator and two workers.
type servers struct {
	base    string // the query endpoint's base URL
	procs   []*proc
	workers []string // worker base URLs (sharded only)
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func startProc(name, logDir, bin string, args ...string) (*proc, error) {
	f, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = f
	cmd.Stderr = f
	// A server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{}), log: f}
	go func() {
		_ = cmd.Wait() // the exit status is read through done
		f.Close()
		close(p.done)
	}()
	return p, nil
}

// stop asks the process to drain and exit, and kills it if it has not
// within the grace period. It returns once the process has ended.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // an already-exited process is handled by done
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (s *servers) stop() {
	// The coordinator goes first so no worker sees a query mid-drain.
	for _, p := range s.procs {
		p.stop()
	}
}

func (s *servers) pids() []int {
	out := make([]int, len(s.procs))
	for i, p := range s.procs {
		out[i] = p.cmd.Process.Pid
	}
	return out
}

// waitReady polls base/readyz until it answers 200, the process exits or
// the deadline passes.
func waitReady(p *proc, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready (see %s)", p.name, p.log.Name())
		default:
		}
		resp, err := client.Get(base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v", p.name, timeout)
}

// startServers starts the workload's server processes over the persisted
// datasets in dataDir and returns once every one answers /readyz.
func startServers(ctx context.Context, w *workload, env *runEnv, dataDir string) (*servers, error) {
	s := &servers{}
	ok := false
	defer func() {
		if !ok {
			s.stop()
		}
	}()
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s.base = "http://" + addr
	dsArgs := datasetFlags(dataDir, w.datasets)

	switch w.server {
	case singleServer:
		p, err := startProc("server", env.workDir, env.serverBin, append([]string{"-addr", addr}, dsArgs...)...)
		if err != nil {
			return nil, err
		}
		s.procs = append(s.procs, p)
	case coldServer:
		args := append([]string{"serve", "-addr", addr, "-cache-bytes", strconv.Itoa(coldCacheBytes)}, dsArgs...)
		p, err := startProc("server", env.workDir, env.selfBin, args...)
		if err != nil {
			return nil, err
		}
		s.procs = append(s.procs, p)
	case shardedServer:
		var workers []*proc
		for i := 0; i < 2; i++ {
			wp, err := freePort()
			if err != nil {
				return nil, err
			}
			waddr := fmt.Sprintf("127.0.0.1:%d", wp)
			p, err := startProc(fmt.Sprintf("worker%d", i), env.workDir, env.serverBin, "-shard-worker", "-listen", waddr)
			if err != nil {
				return nil, err
			}
			workers = append(workers, p)
			s.workers = append(s.workers, "http://"+waddr)
		}
		for i, p := range workers {
			if err := waitReady(p, s.workers[i], time.Minute); err != nil {
				s.procs = workers
				return nil, err
			}
		}
		args := append([]string{"-addr", addr, "-shard-workers", strings.Join(s.workers, ","), "-replicas", "2"}, dsArgs...)
		p, err := startProc("coordinator", env.workDir, env.serverBin, args...)
		if err != nil {
			s.procs = workers
			return nil, err
		}
		s.procs = append([]*proc{p}, workers...)
	}
	if err := waitReady(s.procs[0], s.base, 2*time.Minute); err != nil {
		return nil, err
	}
	ok = true
	return s, ctx.Err()
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTick = 100

// cpuTime returns the user plus system CPU time of a process.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

func totalCPU(pids []int) (time.Duration, error) {
	var sum time.Duration
	for _, pid := range pids {
		t, err := cpuTime(pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}

// peakRSS returns the summed VmHWM of the processes in MB.
func peakRSS(pids []int) (float64, error) {
	var kb int64
	for _, pid := range pids {
		f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
				if err != nil {
					f.Close()
					return 0, fmt.Errorf("bad VmHWM of %d: %q", pid, v)
				}
				kb += n
			}
		}
		f.Close()
	}
	return float64(kb) / 1024, nil
}

// stealTime returns the machine's cumulative steal time from /proc/stat.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(n) * time.Second / clockTick
}
