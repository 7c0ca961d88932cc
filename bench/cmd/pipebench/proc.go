package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// setupRuns is how many times a run sets the program under test up; the
// median is setup_s and the last instance does the measured work.
//
// A set-up lasts from exec until the program has finished one short
// warm-up operation of the workload's own kind, not just until it is up:
// process start alone takes 2-4 ms, and on the reference VM its median
// moved by a quarter between consecutive minutes, while the warm-up
// operations are simulation work that repeats far more closely. The
// warm-up also keeps lazy initialisation out of the measured window.
// Single set-ups of a fresh process still spread by a fifth either way
// (first-touch page faults cost more on some starts than on others), so
// the median is taken over fifteen.
const setupRuns = 15

// stopTimeout bounds a graceful stop before the process is killed.
const stopTimeout = 30 * time.Second

// procMB returns a size field of /proc/<pid>/status (VmRSS, VmHWM) in
// megabytes.
func procMB(pid int, field string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == field+":" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no %s for pid %d", field, pid)
}

// sampleRSS samples the process's resident set every 50 ms until the
// returned stop is called; stop returns the median sample in megabytes.
// The median of the run is steadier than the peak, which depends on
// where garbage collections happen to fall.
func sampleRSS(pid int) (stop func() (float64, error)) {
	done := make(chan struct{})
	var (
		samples  []float64
		firstErr error
		wg       sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := procMB(pid, "VmRSS")
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if err == nil {
				samples = append(samples, mb)
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() (float64, error) {
		close(done)
		wg.Wait()
		if len(samples) == 0 {
			return 0, firstErr
		}
		return median(samples), nil
	}
}

// procCPU returns the user plus system CPU time the process has used.
// /proc reports it in USER_HZ ticks, which Linux fixes at 100 per second.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces;
	// utime and stime are fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// child is one `pipebench -child` process: the simulator workloads' program
// under test. It prints "ready" once set up, runs on "go", prints one JSON
// summary line, and exits on "quit".
type child struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Scanner
}

// startChild starts a child on the job file and returns it once it is
// ready (warm-up done), with the time that took.
func startChild(e *env, jobPath string) (*child, time.Duration, error) {
	cmd := exec.Command(filepath.Join(e.bin, "pipebench"), "-child", "-job", jobPath)
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewScanner(out)}
	c.out.Buffer(make([]byte, 64<<10), 64<<20)
	if !c.out.Scan() || c.out.Text() != "ready" {
		c.kill()
		return nil, 0, fmt.Errorf("child did not become ready: %v", c.out.Err())
	}
	return c, time.Since(t0), nil
}

// run sends "go" and decodes the summary line into sum.
func (c *child) run(sum any) error {
	if _, err := io.WriteString(c.in, "go\n"); err != nil {
		return err
	}
	if !c.out.Scan() {
		return fmt.Errorf("child exited without a summary: %v", c.out.Err())
	}
	return json.Unmarshal(c.out.Bytes(), sum)
}

// quit asks the child to exit and waits for it.
func (c *child) quit() error {
	io.WriteString(c.in, "quit\n")
	c.in.Close()
	for c.out.Scan() {
	}
	return c.cmd.Wait()
}

func (c *child) kill() {
	c.cmd.Process.Kill()
	c.in.Close()
	for c.out.Scan() {
	}
	c.cmd.Wait()
}

// daemon is one pipethermd process serving on a loopback port.
type daemon struct {
	cmd      *exec.Cmd
	base     string // http://host:port
	replayed int    // journal records replayed at start
	exited   chan struct{}
	waitErr  error
}

// startDaemon starts pipethermd with two workers on the given directories
// and returns it once /readyz answers 200.
func startDaemon(e *env, hc *http.Client, cacheDir, journalDir string) (*daemon, error) {
	cmd := exec.Command(filepath.Join(e.bin, "pipethermd"),
		"-addr", "127.0.0.1:0", "-workers", "2",
		"-cache-dir", cacheDir, "-journal-dir", journalDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		line := sc.Text()
		if _, err := fmt.Sscanf(line, "pipethermd: journal: replayed %d records", &d.replayed); err == nil {
			continue
		}
		if addr, ok := strings.CutPrefix(line, "pipethermd listening on "); ok {
			d.base = addr
			break
		}
	}
	go func() {
		io.Copy(io.Discard, out)
		d.waitErr = cmd.Wait()
		close(d.exited)
	}()
	if d.base == "" {
		d.stop()
		return nil, fmt.Errorf("pipethermd exited before listening")
	}
	for {
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		// No sleep between polls: the timer floor here is about 1 ms,
		// a third of an empty daemon's whole start-up.
		if time.Since(t0) > stopTimeout {
			d.stop()
			return nil, fmt.Errorf("pipethermd not ready after %v", stopTimeout)
		}
	}
}

// stop drains the daemon with SIGTERM, killing it if the drain outlasts
// stopTimeout, and waits for it to exit.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(stopTimeout):
		d.cmd.Process.Kill()
		<-d.exited
	}
	return d.waitErr
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }
