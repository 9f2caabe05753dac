package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"syscall"
)

// hostShape is what must match before two results may be compared.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	DataFS     string `json:"data_fs"`
}

func shapeOf(dataDir string) hostShape {
	return hostShape{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		DataFS: fsType(dataDir),
	}
}

// fsType names the filesystem holding dir (statfs magic numbers).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
		0x5346544E: "ntfs", 0x4d44: "vfat", 0xF2F52010: "f2fs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// compareMain prints the per-metric ratio of two detailed records (the
// files a run writes under .bench_build/perfbench/). It refuses, with
// status 2, to compare records taken on different host shapes.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.json NEW.json")
		return 2
	}
	var recs [2]record
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &recs[i])
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}
	if recs[0].Shape != recs[1].Shape {
		fmt.Fprintf(os.Stderr, "perfbench compare: host shapes differ: %+v vs %+v\n", recs[0].Shape, recs[1].Shape)
		return 2
	}
	if recs[0].Config.Workload != recs[1].Config.Workload {
		fmt.Fprintf(os.Stderr, "perfbench compare: workloads differ: %s vs %s\n", recs[0].Config.Workload, recs[1].Config.Workload)
		return 2
	}
	names := make([]string, 0, len(recs[1].All))
	for k := range recs[1].All {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		a, b := recs[0].All[k], recs[1].All[k]
		fmt.Fprintf(w, "%-32s %14.4f %14.4f %8.3fx\n", k, a, b, ratio(b, a))
	}
	return 0
}
