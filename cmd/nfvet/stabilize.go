package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/protocol"
	"repro/internal/replay"
	"repro/internal/stabilize"
	"repro/internal/trace"
)

// runStabilize sweeps the arbitrary-start convergence checker
// (internal/stabilize) over the named protocols: every corrupted initial
// configuration in each protocol's declared corruption space is driven
// through the canonical recovery schedule and judged against its amnesty.
// The verdict vocabulary matches the rest of nfvet — CERTIFIED/CONSISTENT/
// OBSERVED/FAIL against the protocol's StabilizeStatus declaration. This is
// the quick per-seed sweep; `nfvet verify -stabilize` is the exhaustive
// prover over the same corruption space. Exit status is nonzero iff a
// protocol's check is FAIL.
func runStabilize(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("nfvet stabilize", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		all       = fs.Bool("all", false, "sweep every registered protocol")
		maxPoison = fs.Int("maxpoison", 1, "poison packets pre-loaded per channel")
		occupancy = fs.Int("occupancy", 2, "channel occupancy assumed by the amnesty budget")
		probes    = fs.Int("probes", 3, "messages driven through each corrupted start")
		steps     = fs.Int("steps", 512, "transmitter step budget per probe before a run counts as stalled")
		table     = fs.Bool("table", false, "emit one TSV row per corrupted seed instead of summary reports")
		outDir    = fs.String("o", "", "write each protocol's first divergence witness as <protocol>-stabilize-<property>.nft under this directory")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := fs.Args()
	if *all {
		names = protocol.Names()
	}
	if len(names) == 0 {
		fmt.Fprintln(errw, "nfvet stabilize: name protocols or pass -all (known: "+replay.KnownProtocols()+")")
		return 2
	}

	cfg := stabilize.Config{
		Probes:     *probes,
		Occupancy:  *occupancy,
		StepBudget: *steps,
	}
	if *table {
		fmt.Fprintln(out, "protocol\tseed\tamnesty\tcharges\tconverged\tproperty")
	}
	failed := 0
	for i, name := range names {
		p, err := replay.LookupProtocol(name)
		if err != nil {
			fmt.Fprintln(errw, "nfvet stabilize:", err)
			return 2
		}
		sr, err := stabilize.Sweep(p, cfg, *maxPoison)
		if err != nil {
			fmt.Fprintln(errw, "nfvet stabilize:", err)
			return 2
		}
		if *table {
			for _, rep := range sr.Reports {
				charges, prop := 0, ""
				if rep.Judgment != nil {
					charges = rep.Judgment.Charges
				}
				if rep.Violation != nil {
					prop = rep.Violation.Property
				}
				fmt.Fprintf(out, "%s\t%s\t%d\t%d\t%t\t%s\n",
					sr.Protocol, rep.Seed, rep.Amnesty, charges, rep.Converged, prop)
			}
		} else {
			if i > 0 {
				fmt.Fprintln(out)
			}
			fmt.Fprint(out, sr)
		}
		if *outDir != "" && sr.First != nil && sr.First.Witness != nil {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(errw, "nfvet stabilize:", err)
				return 2
			}
			path := filepath.Join(*outDir, sr.Protocol+"-stabilize-"+sr.First.Violation.Property+".nft")
			if err := trace.WriteFile(path, sr.First.Witness); err != nil {
				fmt.Fprintln(errw, "nfvet stabilize:", err)
				return 2
			}
			if !*table {
				fmt.Fprintf(out, "  witness:   %s\n", path)
			}
		}
		if sr.Check == "FAIL" {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(errw, "nfvet stabilize: %d protocol(s) FAIL\n", failed)
		return 1
	}
	return 0
}
