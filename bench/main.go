// Command bench is the repository's one benchmark: six workloads over
// the five round loops, end-to-end metrics with regression bounds, and a
// separate traced pass that yields per-layer numbers. See README.md.
//
//	go run ./bench -seed 1                  every workload, one child process each
//	go run ./bench -seed 1 -trace 1         the traced pass (per-layer metrics, span files)
//	go run ./bench -workload mlp_proto      one workload in this process (what the driver runs)
//	go run ./bench -compare old.json new.json
package main

import (
	"flag"
	"fmt"
	"os"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	quick    bool
	runs     int
	out      string
	detail   string
	// frameBytes, when non-zero, replaces what a fleet_ingest update frame
	// is expected to weigh. No flag sets it: the smoke test passes a wrong
	// value to prove that a broken gate fails the run.
	frameBytes int
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload, in this process (default: all, one child process each)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", refSeconds, "target length of one workload's measured part; budgets scale linearly from 10")
	flag.IntVar(&o.trace, "trace", 0, "1: traced pass (obs registry, event log, spans, layer probes); 0: end-to-end pass")
	flag.BoolVar(&o.quick, "quick", false, "smoke scale: 1/50 of the rounds, no setup repeats, shortest probes")
	flag.IntVar(&o.runs, "runs", 1, "with no -workload: repeat every workload this many times (spread for -compare)")
	flag.StringVar(&o.out, "out", "", "with no -workload: also write the result document to this file")
	flag.StringVar(&o.detail, "detail", "", "with -workload: also write the full result (notes, gates, both metric sets) to this file")
	compare := flag.Bool("compare", false, "compare two result documents: -compare old.json new.json")
	spec := flag.Bool("spec", false, "print BENCHMARK.json and exit")
	flag.Parse()

	var err error
	switch {
	case *spec:
		var doc []byte
		if doc, err = benchmarkJSON(); err == nil {
			_, err = os.Stdout.Write(doc)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: bench -compare old.json new.json")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case flag.NArg() != 0:
		err = fmt.Errorf("unexpected argument %q", flag.Arg(0))
	case o.trace != 0 && o.trace != 1:
		err = fmt.Errorf("-trace takes 0 or 1")
	case o.seconds <= 0:
		err = fmt.Errorf("-seconds must be positive")
	case o.workload != "":
		_, err = runOne(o, os.Stdout)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
