package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// fingerprint identifies the code and machine a record was measured on:
// commit, Go version, GOMAXPROCS, nproc and CPU model. Outside a git
// checkout the commit is a hash of the Go sources.
func fingerprint(root string) string {
	return fmt.Sprintf("commit=%s go=%s gomaxprocs=%d nproc=%d cpu=%q",
		commit(root), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
}

func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
		cmd.Dir = root
		if out, err := cmd.Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, p)
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// liveHeap forces garbage collection and returns the live heap in
// bytes. Two cycles, so objects parked in sync.Pool victim caches are
// gone too.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// goroutinesDelta waits up to two seconds for goroutines started since
// before to exit and returns how many remain.
func goroutinesDelta(before int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine() - before
		if n <= 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stealTicks returns the CPU time the hypervisor gave to other guests
// while this machine's CPUs had work, summed over CPUs, in clock ticks
// of 1/100 s (the steal column of /proc/stat). ok is false where the
// figure is unavailable.
func stealTicks() (ticks int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	return n, err == nil
}
