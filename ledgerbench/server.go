package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one spawned chainserve process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	exited chan struct{}
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

// startServer spawns chainserve on a free loopback port and waits until
// /healthz answers 200. storeDir, when set, makes jobs durable there.
func startServer(bin, storeDir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-addr", addr}
	if storeDir != "" {
		args = append(args, "-store-dir", storeDir)
	}
	s := &server{base: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, args...)
	s.cmd.Stderr = &s.stderr
	// Should the benchmark itself be killed, the server goes with it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start chainserve: %w", err)
	}
	go func() {
		s.cmd.Wait()
		close(s.exited)
	}()
	client := newClient(1)
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("chainserve exited during startup: %s", s.stderr.String())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("chainserve not healthy after 30s")
		}
	}
}

// stop asks chainserve to drain (SIGTERM) and waits for it to exit,
// killing it if the drain takes too long.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on
// Linux.
const clockTicks = 100

// procStat is the part of /proc/<pid>/stat the benchmark reads.
type procStat struct {
	user, sys   time.Duration
	minorFaults int64
}

func (p procStat) cpu() time.Duration { return p.user + p.sys }

// stat reads the process's CPU times and minor page faults from
// /proc/<pid>/stat.
func (s *server) stat() (procStat, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return procStat{}, err
	}
	// Fields after the parenthesized command name start at field 3
	// (state); minflt is field 10, utime and stime are fields 14 and 15.
	rest := string(raw[bytes.LastIndexByte(raw, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return procStat{}, fmt.Errorf("short /proc stat line")
	}
	var v [3]int64
	for i, k := range []int{7, 11, 12} {
		if v[i], err = strconv.ParseInt(f[k], 10, 64); err != nil {
			return procStat{}, fmt.Errorf("parse /proc stat: %w", err)
		}
	}
	return procStat{user: time.Duration(v[1]) * time.Second / clockTicks,
		sys: time.Duration(v[2]) * time.Second / clockTicks, minorFaults: v[0]}, nil
}

// peakRSSMiB returns the process's resident-set high-water mark
// (VmHWM) in MiB.
func (s *server) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
