package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// procs owns everything the benchmark leaves outside its own address
// space: the dcserver children and their data directories. Every exit path
// — normal return, error, panic in main's goroutine, SIGINT/SIGTERM — goes
// through cleanup; children additionally carry PDEATHSIG so a hard kill of
// the generator takes them down too.
type procs struct {
	repoRoot  string
	workDir   string // <repo>/.bench_build/dcbench
	runDir    string // <workDir>/run-<pid>, removed on exit
	serverBin string

	mu      sync.Mutex
	servers []*server
	serial  int
}

func newProcs() (*procs, error) {
	root, err := findRepoRoot()
	if err != nil {
		return nil, err
	}
	work := filepath.Join(root, ".bench_build", "dcbench")
	// A generator that was SIGKILLed could not remove its run directory;
	// sweep those whose process is gone.
	stale, _ := filepath.Glob(filepath.Join(work, "run-*"))
	for _, dir := range stale {
		pid := strings.TrimPrefix(filepath.Base(dir), "run-")
		if _, err := os.Stat(filepath.Join("/proc", pid)); os.IsNotExist(err) {
			os.RemoveAll(dir)
		}
	}
	run := filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(run, 0o755); err != nil {
		return nil, err
	}
	return &procs{repoRoot: root, workDir: work, runDir: run}, nil
}

// findRepoRoot walks up from the working directory to the go.mod that
// declares module deepcontext.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && bytes.HasPrefix(bytes.TrimSpace(data), []byte("module deepcontext")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("dcbench: run from inside the deepcontext repository (no go.mod found)")
		}
		dir = parent
	}
}

// buildServer compiles cmd/dcserver, unmodified, into the work directory.
func (p *procs) buildServer() error {
	bin := filepath.Join(p.workDir, "bin", "dcserver")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/dcserver")
	cmd.Dir = p.repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build dcserver: %v\n%s", err, out)
	}
	p.serverBin = bin
	return nil
}

// newDataDir makes one fresh data directory under the run directory.
func (p *procs) newDataDir() (string, error) {
	p.mu.Lock()
	p.serial++
	n := p.serial
	p.mu.Unlock()
	dir := filepath.Join(p.runDir, fmt.Sprintf("data-%d", n))
	return dir, os.MkdirAll(dir, 0o755)
}

// cleanup kills every live child, waits for each, and removes the run
// directory. Safe to call more than once.
func (p *procs) cleanup() {
	p.mu.Lock()
	servers := p.servers
	p.servers = nil
	p.mu.Unlock()
	for _, s := range servers {
		s.kill()
	}
	os.RemoveAll(p.runDir)
}

// server is one spawned dcserver process.
type server struct {
	cmd     *exec.Cmd
	pid     int
	url     string
	dataDir string
	spawned time.Time
	ready   time.Time // first 200 from /healthz

	logMu sync.Mutex
	log   []string // last lines of stdout+stderr, for error reports
	done  chan struct{}
}

var listenLine = regexp.MustCompile(`^dcserver: listening on (127\.0\.0\.1:(\d+)) `)

// baseFlags are the flags every server workload starts from: production
// defaults (cache 512, index, trend, telemetry and delta on, shards =
// GOMAXPROCS) with time constants short enough that window close,
// compaction and snapshots each complete several cycles inside a
// ten-second phase: 20 window closes, a compaction pass per window once the
// three-second fine horizon has passed, five snapshots — one per slice of
// the phase (see sliceWidth).
func baseFlags(dataDir string) []string {
	return []string{
		"-addr", "127.0.0.1:0", "-data-dir", dataDir,
		"-window", windowWidth.String(), "-retention", "6",
		"-coarse-factor", "5", "-coarse-retention", "60",
		"-snapshot-interval", sliceWidth.String(),
	}
}

// spawn starts dcserver with args and returns once it answers /healthz
// with 200. The port is read off the child's own "listening on" line and
// the listening socket is checked to belong to the child's pid, so a
// stale server from an earlier crashed run can never be taken for this
// one.
func (p *procs) spawn(dataDir string, args ...string) (*server, error) {
	cmd := exec.Command(p.serverBin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw := io.Pipe()
	cmd.Stdout = pw
	cmd.Stderr = pw
	s := &server{cmd: cmd, dataDir: dataDir, done: make(chan struct{})}
	s.spawned = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start dcserver: %w", err)
	}
	s.pid = cmd.Process.Pid
	p.mu.Lock()
	p.servers = append(p.servers, s)
	p.mu.Unlock()

	go func() {
		cmd.Wait()
		pw.Close()
		close(s.done)
	}()
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			s.logMu.Lock()
			if s.log = append(s.log, line); len(s.log) > 40 {
				s.log = s.log[1:]
			}
			s.logMu.Unlock()
			if m := listenLine.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case <-s.done:
		return nil, fmt.Errorf("dcserver (pid %d) exited before listening:\n%s", s.pid, s.tail())
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("dcserver (pid %d) did not listen within 60s:\n%s", s.pid, s.tail())
	}
	_, port, _ := strings.Cut(addr, ":")
	if err := socketOwnedBy(s.pid, port); err != nil {
		s.kill()
		return nil, err
	}
	s.url = "http://" + addr
	hc := &http.Client{Timeout: 2 * time.Second}
	for deadline := time.Now().Add(10 * time.Second); ; {
		resp, err := hc.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Now()
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("dcserver (pid %d) at %s never answered /healthz: %v", s.pid, s.url, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *server) tail() string {
	s.logMu.Lock()
	defer s.logMu.Unlock()
	return strings.Join(s.log, "\n")
}

// kill SIGKILLs the process (a crash, as far as its data directory is
// concerned) and waits until it is gone.
func (s *server) kill() {
	s.cmd.Process.Signal(syscall.SIGKILL)
	<-s.done
}

// release kills the server, forgets it, and removes its data directory.
func (p *procs) release(s *server) {
	s.kill()
	p.mu.Lock()
	for i, x := range p.servers {
		if x == s {
			p.servers = append(p.servers[:i], p.servers[i+1:]...)
			break
		}
	}
	p.mu.Unlock()
	os.RemoveAll(s.dataDir)
}

// socketOwnedBy checks that the TCP socket listening on port belongs to
// pid: the socket's inode from /proc/net/tcp must appear among the
// process's open descriptors.
func socketOwnedBy(pid int, port string) error {
	n, err := strconv.Atoi(port)
	if err != nil {
		return fmt.Errorf("bad port %q", port)
	}
	data, err := os.ReadFile("/proc/net/tcp")
	if err != nil {
		return fmt.Errorf("check listener of pid %d: %w", pid, err)
	}
	want := fmt.Sprintf(":%04X", n)
	var inodes []string
	for _, line := range strings.Split(string(data), "\n")[1:] {
		f := strings.Fields(line)
		// local_address rem_address st ... inode is field 9; st 0A = LISTEN.
		if len(f) > 9 && strings.HasSuffix(f[1], want) && f[3] == "0A" {
			inodes = append(inodes, f[9])
		}
	}
	fds, err := os.ReadDir(fmt.Sprintf("/proc/%d/fd", pid))
	if err != nil {
		return fmt.Errorf("check listener of pid %d: %w", pid, err)
	}
	for _, fd := range fds {
		link, err := os.Readlink(fmt.Sprintf("/proc/%d/fd/%s", pid, fd.Name()))
		if err != nil {
			continue
		}
		for _, ino := range inodes {
			if link == "socket:["+ino+"]" {
				return nil
			}
		}
	}
	return fmt.Errorf("port %s is not held by the dcserver this run started (pid %d): a stale server?", port, pid)
}

// procUsage is a process's CPU time and peak resident set from /proc.
type procUsage struct {
	userS, sysS float64
	peakRSSMB   float64
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it is
// 100 on every Linux port Go supports.
const clockTick = 100

func readUsage(pid int) (procUsage, error) {
	var u procUsage
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return u, err
	}
	// comm may hold spaces and parentheses; fields resume after the last ')'.
	rp := bytes.LastIndexByte(stat, ')')
	if rp < 0 {
		return u, fmt.Errorf("/proc/%d/stat: no comm", pid)
	}
	f := strings.Fields(string(stat[rp+1:]))
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return u, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return u, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	u.userS, u.sysS = ut/clockTick, st/clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return u, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			u.peakRSSMB = kb / 1024
		}
	}
	return u, nil
}

// selfCPU is this process's own user+system CPU seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// crash SIGKILLs the server and forgets the process but keeps its data
// directory, for a restart on what the crash left behind.
func (p *procs) crash(s *server) {
	dir := s.dataDir
	s.dataDir = ""
	p.release(s)
	s.dataDir = dir
}
