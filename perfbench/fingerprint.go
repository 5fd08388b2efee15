package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	goruntime "runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// recordPrefix starts the output line that carries a run's full record.
const recordPrefix = "perfbench-record"

// host identifies the machine and toolchain a run was made with. Runs are
// comparable only when these agree.
type host struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	// Commit is the VCS revision stamped into the binary, "unknown" when it
	// was built outside a git checkout; Source is a digest of the Go
	// sources and go.mod files it was built from, which identifies the code
	// either way.
	Commit string `json:"commit"`
	Source string `json:"source"`
}

// sameHost reports whether two runs were made on the same kind of host.
func (h host) sameHost(o host) bool {
	return h.CPU == o.CPU && h.NumCPU == o.NumCPU && h.GOMAXPROCS == o.GOMAXPROCS && h.GoVersion == o.GoVersion
}

// record is one run as compare mode reads it.
type record struct {
	Fingerprint host             `json:"fingerprint"`
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Seconds     float64          `json:"seconds"`
	Trace       int              `json:"trace"`
	Start       string           `json:"start"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Metrics     map[string]value `json:"metrics"`
	Extra       map[string]value `json:"extra,omitempty"`
}

func fingerprint() host {
	h := host{
		CPU: cpuModel(), NumCPU: goruntime.NumCPU(), GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion: goruntime.Version(), Commit: "unknown", Source: sourceDigest("."),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return goruntime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return goruntime.GOARCH
}

// cpuTimes reads the host's cumulative CPU time and the part of it stolen
// by the hypervisor (clock ticks, /proc/stat); zeros when unavailable.
func cpuTimes() (total, steal uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; the guest fields
	// that follow are already counted in user and nice.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// sourceDigest hashes the paths and contents of the .go and go.mod files
// under root, skipping hidden directories (build outputs live there).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
