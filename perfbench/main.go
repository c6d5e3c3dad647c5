// Command perfbench is the end-to-end benchmark of the 2D BE-string
// server: it starts a real cmd/server on a durable data directory,
// drives it over loopback and reports end-to-end metrics (untraced
// runs) or per-layer metrics (traced runs with an in-process layer
// replay), checking every result it can against a brute-force
// reference.
//
// Usage (from the repository root, through run.sh, which builds the
// server and this program first):
//
//	bash perfbench/run.sh --workload search-scan --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 15
//
// A single-workload run prints a metric table on stderr and, as the last
// line of stdout, one JSON object {"correct","attempted","failed",
// "metrics"}. "all" runs every workload untraced and traced and prints
// every table. The exit status is non-zero on any wrong result.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
)

// live tracks the servers this process started, so every exit path
// (including a signal) stops them.
var live struct {
	sync.Mutex
	servers map[*server]bool
}

func track(s *server) {
	live.Lock()
	defer live.Unlock()
	if live.servers == nil {
		live.servers = map[*server]bool{}
	}
	live.servers[s] = true
}

func untrack(s *server) {
	live.Lock()
	defer live.Unlock()
	delete(live.servers, s)
}

// killAll SIGKILLs and reaps every tracked server.
func killAll() {
	live.Lock()
	servers := make([]*server, 0, len(live.servers))
	for s := range live.servers {
		servers = append(servers, s)
	}
	live.Unlock()
	for _, s := range servers {
		s.kill()
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	wl := fs.String("workload", "", "search-scan, search-narrow, write-mixed, import or all")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 15, "length of the timed open-loop phase (closed loops run half as long)")
	trace := fs.Int("trace", 0, "1: traced run with per-layer metrics and layer replay")
	bin := fs.String("server", "", "path to the built cmd/server binary")
	work := fs.String("work", "", "directory for data directories, logs and spans")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *bin == "" || *work == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -server, -work, a positive -seconds and -trace 0|1 are required")
		return 2
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAll()
		os.Exit(130)
	}()
	defer killAll()

	if *wl == "all" {
		ok := true
		for _, name := range workloadNames {
			for _, traced := range []bool{false, true} {
				rep, err := runOne(name, *seed, *seconds, traced, *bin, *work)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
					return 1
				}
				rep.printTable(os.Stdout, fmt.Sprintf("%s seed=%d traced=%v", name, *seed, traced))
				ok = ok && len(rep.errs) == 0
			}
		}
		if !ok {
			return 1
		}
		return 0
	}

	rep, err := runOne(*wl, *seed, *seconds, *trace == 1, *bin, *work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	rep.printTable(os.Stderr, fmt.Sprintf("%s seed=%d traced=%v", *wl, *seed, *trace == 1))
	line, err := rep.result(*trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *wl, err)
		return 1
	}
	fmt.Println(string(line))
	if len(rep.errs) > 0 {
		return 1
	}
	return 0
}

// runOne runs one workload once in its own directory under work and
// removes the data directories afterwards (logs and spans stay).
func runOne(name string, seed int64, seconds float64, traced bool, bin, work string) (*report, error) {
	dir := filepath.Join(work, fmt.Sprintf("%s-seed%d-trace%v-pid%d", name, seed, traced, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	r := &runner{seed: seed, seconds: seconds, traced: traced, bin: bin,
		dir: dir, conns: conns, client: newClient(conns), rep: newReport(), tr: newTracer()}
	var err error
	switch name {
	case "search-scan":
		err = r.runSearch(false)
	case "search-narrow":
		err = r.runSearch(true)
	case "write-mixed":
		err = r.runWriteMixed()
	case "import":
		err = r.runImport()
	default:
		err = fmt.Errorf("unknown workload %q", name)
	}
	killAll()
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if e.IsDir() {
			_ = os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
	return r.rep, err
}
