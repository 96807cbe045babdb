package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// printFingerprint prints the host and run fingerprint as one JSON line
// ({"fingerprint": {...}}) ahead of the result: what the numbers were
// measured on and with.
func printFingerprint(cfg runConfig, in *inputs, d *daemon, extra map[string]any) {
	fp := map[string]any{
		"workload":        cfg.workload.name,
		"seed":            cfg.seed,
		"seconds":         cfg.seconds.Seconds(),
		"cpu_model":       cpuModel(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"go_version":      runtime.Version(),
		"commit":          commit(cfg.root),
		"source_sha256":   sourceDigest(cfg.root),
		"input_sha256":    hex.EncodeToString(in.hash[:]),
		"daemon_flags":    strings.Join(d.args, " "),
		"daemon_defaults": "-j 0 (= GOMAXPROCS = nproc), -synth-j 1",
	}
	for k, v := range extra {
		fp[k] = v
	}
	b, _ := json.Marshal(map[string]any{"fingerprint": fp})
	fmt.Println(string(b))
}

// cpuTicks returns the host's total and stolen CPU ticks from the
// aggregate line of /proc/stat (zeros when unreadable).
func cpuTicks() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		// guest and guest_nice (fields 9 and 10) are already in user time.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// stealMeter measures the share of CPU time the hypervisor took from
// this guest over an interval: host interference, recorded beside the
// figures it perturbs.
type stealMeter struct{ total, steal uint64 }

func startSteal() stealMeter {
	t, s := cpuTicks()
	return stealMeter{t, s}
}

func (m stealMeter) pct() float64 {
	t, s := cpuTicks()
	if t <= m.total {
		return 0
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the checked-out commit when the tree is a git work
// tree, and "none" otherwise; source_sha256 identifies the tree either
// way.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes go.mod and every Go file under root (paths and
// contents, in path order), skipping dot-directories such as the build
// output.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && p != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if !e.IsDir() && (strings.HasSuffix(p, ".go") || e.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
