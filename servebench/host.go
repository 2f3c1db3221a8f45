package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostInfo is the host and input block recorded with every result set, so
// numbers from different machines are not compared blind.
type hostInfo struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	L2         string `json:"l2_cache"`
	L3         string `json:"l3_cache"`
}

func probeHost(root string) hostInfo {
	h := hostInfo{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unavailable (not a git checkout)",
		L2:         "unknown",
		L3:         "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	caches, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, c := range caches {
		level, _ := os.ReadFile(filepath.Join(c, "level"))
		size, _ := os.ReadFile(filepath.Join(c, "size"))
		switch strings.TrimSpace(string(level)) {
		case "2":
			h.L2 = strings.TrimSpace(string(size))
		case "3":
			h.L3 = strings.TrimSpace(string(size))
		}
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

// cpuTicks reads the aggregate CPU line of /proc/stat: total ticks and the
// ticks stolen by the hypervisor. On a shared virtual machine stolen time
// slows a run without showing in its own CPU accounting, so runs report it.
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
		if i < 8 { // user..steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}
