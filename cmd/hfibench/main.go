// Command hfibench regenerates every table and figure of the paper's
// evaluation (§5.2, §6) against the simulated substrate.
//
// Usage:
//
//	hfibench -all              # run everything (minutes)
//	hfibench -fig 3            # one figure: 2, 3, 4, 5, 7
//	hfibench -table 1          # Table 1
//	hfibench -exp heapgrowth   # §-experiments: heapgrowth, regpressure,
//	                           # teardown, scaling, syscalls, font, micro,
//	                           # hostcall, ablate-switch, ablate-schemes
//	hfibench -quick            # reduced scales for a fast smoke pass
//	hfibench -all -json        # machine-readable: JSON array of tables
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hfi/internal/experiments"
	"hfi/internal/stats"
)

func main() {
	var (
		all     = flag.Bool("all", false, "run every experiment")
		fig     = flag.Int("fig", 0, "figure number to reproduce (2,3,4,5,7)")
		table   = flag.Int("table", 0, "table number to reproduce (1)")
		exp     = flag.String("exp", "", "named experiment (heapgrowth, regpressure, teardown, scaling, syscalls, font, multimem, micro, hostcall, ablate-switch, ablate-schemes)")
		quick   = flag.Bool("quick", false, "reduced scales")
		jsonOut = flag.Bool("json", false, "emit results as a JSON array of tables instead of text")
	)
	flag.Parse()

	scale := 1
	steps, teardownN, scalingN, sysIters, reqs := 65535, 2000, 8192, 100_000, 30
	if *quick {
		steps, teardownN, scalingN, sysIters, reqs = 4000, 300, 1024, 20_000, 12
	}

	ran := false
	var tables []*stats.Table
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "hfibench:", err)
		os.Exit(1)
	}
	show := func(tb *stats.Table, err error) {
		if err != nil {
			fail(err)
		}
		ran = true
		if *jsonOut {
			tables = append(tables, tb)
			return
		}
		fmt.Println(tb)
	}

	if *all || *fig == 2 {
		_, tb, err := experiments.RunFig2(scale)
		show(tb, err)
	}
	if *all || *fig == 3 {
		_, tb, err := experiments.RunFig3(scale)
		show(tb, err)
	}
	if *all || *fig == 4 {
		_, tb, err := experiments.RunFig4()
		show(tb, err)
	}
	if *all || *fig == 5 {
		_, tb, err := experiments.RunFig5(reqs)
		show(tb, err)
	}
	if *all || *fig == 7 {
		_, tb, err := experiments.RunFig7()
		show(tb, err)
	}
	if *all || *table == 1 {
		_, tb, err := experiments.RunTable1(reqs)
		show(tb, err)
	}
	runExp := func(name string) bool { return *all || *exp == name }
	if runExp("font") {
		tb, err := experiments.RunFont()
		show(tb, err)
	}
	if runExp("heapgrowth") {
		tb, err := experiments.RunHeapGrowth(steps)
		show(tb, err)
	}
	if runExp("regpressure") {
		tb, err := experiments.RunRegPressure(scale)
		show(tb, err)
	}
	if runExp("teardown") {
		tb, err := experiments.RunTeardown(teardownN)
		show(tb, err)
	}
	if runExp("scaling") {
		tb, err := experiments.RunScaling(scalingN)
		show(tb, err)
	}
	if runExp("syscalls") {
		tb, err := experiments.RunSyscallInterposition(int64(sysIters))
		show(tb, err)
	}
	if runExp("ablate-switch") {
		tb, err := experiments.RunAblationSwitchOnExit(300)
		show(tb, err)
	}
	if runExp("ablate-schemes") {
		tb, err := experiments.RunAblationSchemes()
		show(tb, err)
	}
	if runExp("multimem") {
		tb, err := experiments.RunMultiMemory()
		show(tb, err)
	}
	if runExp("hostcall") {
		hcReqs := 3000
		if *quick {
			hcReqs = 500
		}
		_, tb, err := experiments.RunHostcallRoundTrip(hcReqs)
		show(tb, err)
	}
	if runExp("micro") {
		minInstrs := uint64(40_000_000)
		if *quick {
			minInstrs = 5_000_000
		}
		_, tb, err := experiments.RunMicroPerf(minInstrs)
		show(tb, err)
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fail(err)
		}
	}
}
