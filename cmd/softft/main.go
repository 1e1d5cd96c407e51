// Command softft compiles, protects, runs and fault-tests a single
// benchmark (or a user program) from the command line.
//
// Usage:
//
//	softft -list
//	softft -bench jpegdec -mode dupval -stats
//	softft -bench jpegdec -mode dupval -inject 500
//	softft -bench segm -mode dupval+cfc -fault-model branch-target -inject 500
//	softft -bench mp3dec -dump
//	softft -src prog.sf -run
//	softft -bench-campaign BENCH_campaign.json
//
// Distributed campaigns (see DESIGN.md, "Campaign service"):
//
//	softft serve -addr 127.0.0.1:7077 -dir /tmp/journals
//	softft work -coordinator http://127.0.0.1:7077
//	softft submit -bench jpegdec -mode dupval -inject 500 -wait
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro"
)

// subcommands are the distributed-campaign verbs (serve.go).
var subcommands = map[string]func(ctx context.Context, args []string, stdout, stderr io.Writer) error{
	"serve":  runServe,
	"work":   runWork,
	"submit": runSubmit,
}

// usageError is a command-line mistake; main exits 2 on it.
type usageError string

func (e usageError) Error() string { return string(e) }

func main() {
	var err error
	if len(os.Args) > 1 && subcommands[os.Args[1]] != nil {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err = subcommands[os.Args[1]](ctx, os.Args[2:], os.Stdout, os.Stderr)
		stop()
	} else {
		err = runSolo(os.Args[1:], os.Stdout, os.Stderr)
	}
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.As(err, new(usageError)):
		fmt.Fprintln(os.Stderr, "softft:", err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "softft:", err)
		os.Exit(1)
	}
}

// parseFlags parses args into fs, marking parse failures as usage errors
// (the flag package has already printed the details and the usage).
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError(err.Error())
	}
	if fs.NArg() > 0 {
		return usageError(fmt.Sprintf("unexpected argument %q", fs.Arg(0)))
	}
	return nil
}

// runSolo is the single-process command line: compile, protect, run,
// inject, or benchmark one program.
func runSolo(args []string, stdout, stderr io.Writer) error {
	flags := flag.NewFlagSet("softft", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		list    = flags.Bool("list", false, "list built-in benchmarks")
		bench   = flags.String("bench", "", "built-in benchmark name")
		src     = flags.String("src", "", "compile a source file instead of a benchmark")
		mode    = flags.String("mode", "original", "protection scheme, a '+'-composition of registered schemes (e.g. dupval, abft+dupval, dupval+cfc), or 'list'")
		dump    = flags.Bool("dump", false, "print the (protected) IR")
		run     = flags.Bool("run", false, "run fault-free and print statistics")
		stats   = flags.Bool("stats", false, "print protection statistics")
		inject  = flags.Int("inject", 0, "run a fault-injection campaign with N trials")
		seed    = flags.Int64("seed", 2014, "campaign seed")
		profOut = flags.String("profile-out", "", "write the value profile to this file")
		profIn  = flags.String("profile-in", "", "read a saved value profile instead of re-profiling")
		trace   = flags.Int64("trace", 0, "print an execution trace of up to N instructions")
		fmodel  = flags.String("fault-model", "", "registered fault model for -inject (default reg-flip), or 'list'")

		journal      = flags.String("journal", "", "append completed trials to this durable journal file")
		resume       = flags.Bool("resume", false, "replay the -journal file and run only the remaining trials")
		trialTimeout = flags.Duration("trial-timeout", 0, "wall-clock bound per trial (e.g. 5s); hung trials are quarantined")
		targetCI     = flags.Float64("target-ci", 0, "stop early once coverage and USDC 95% CIs are this tight (e.g. 0.05)")

		benchCampaign = flags.String("bench-campaign", "", "measure campaign throughput over all benchmarks and write the JSON artifact to this path")
		benchTrials   = flags.Int("bench-trials", 100, "trials per grid cell for -bench-campaign")
	)
	if err := parseFlags(flags, args); err != nil {
		return err
	}

	if *benchCampaign != "" {
		return runCampaignBench(*benchCampaign, *benchTrials, *seed)
	}

	if *list {
		for _, name := range softft.Benchmarks() {
			b, _ := softft.GetBenchmark(name)
			fmt.Fprintf(stdout, "%-10s %s\n", name, b.Description())
		}
		return nil
	}

	if *fmodel == "list" {
		for _, name := range softft.FaultModels() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}

	if *mode == "list" {
		for _, m := range softft.Modes() {
			needs := ""
			if m.NeedsProfile() {
				needs = " (needs a value profile)"
			}
			fmt.Fprintf(stdout, "%-10s %s%s\n", m, m.Title(), needs)
		}
		return nil
	}

	if *bench == "" && *src == "" {
		return usageError("need -bench, -src or -list; see -help")
	}

	var (
		prog *softft.Program
		bm   *softft.Benchmark
		err  error
	)
	if *src != "" {
		data, rerr := os.ReadFile(*src)
		if rerr != nil {
			return rerr
		}
		prog, err = softft.Compile(*src, string(data))
	} else {
		bm, err = softft.GetBenchmark(*bench)
		if err == nil {
			prog, err = bm.Program()
		}
	}
	if err != nil {
		return err
	}

	m, err := softft.ParseMode(*mode)
	if err != nil {
		return err
	}
	if !m.NeedsProfile() && (*profIn != "" || *profOut != "") {
		return usageError(fmt.Sprintf("-profile-in and -profile-out need a -mode that takes a value profile; %s does not", m))
	}

	if m != softft.Original {
		var prof *softft.Profile
		if m.NeedsProfile() {
			if *profIn != "" {
				f, err := os.Open(*profIn)
				if err != nil {
					return err
				}
				prof, err = softft.LoadProfile(f, prog.Name())
				f.Close()
				if err != nil {
					return err
				}
			} else {
				if bm == nil {
					return fmt.Errorf("-mode %s needs a built-in benchmark or -profile-in", m)
				}
				prof, err = prog.ProfileValues(bm.TrainInput())
				if err != nil {
					return err
				}
			}
			if *profOut != "" {
				f, err := os.Create(*profOut)
				if err != nil {
					return err
				}
				err = prof.Save(f, prog.Name())
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return err
				}
			}
		}
		var st softft.Stats
		prog, st, err = prog.Protect(m, prof)
		if err != nil {
			return err
		}
		if *stats {
			fmt.Fprintf(stdout, "protection %s: %d static instrs, %d state vars, %d duplicated, %d dup checks, %d value checks\n",
				m, st.TotalInstrs, st.StateVars, st.DuplicatedInstrs, st.DupChecks, st.ValueChecks)
			if st.ABFTKernels > 0 {
				fmt.Fprintf(stdout, "  abft: %d kernels checksummed, %d exit checks\n", st.ABFTKernels, st.ABFTChecks)
			}
			if st.CFCChecks+st.CFCUnchecked > 0 {
				fmt.Fprintf(stdout, "  cfc: %d signature checks, %d uncheckable fan-ins\n", st.CFCChecks, st.CFCUnchecked)
			}
		}
	} else if *stats {
		fmt.Fprintf(stdout, "original: %d static instrs\n", prog.NumInstrs())
	}

	if *dump {
		fmt.Fprint(stdout, prog.Dump())
	}

	if *run || *trace > 0 {
		in := softft.NewInput()
		if bm != nil {
			in = bm.TestInput()
		}
		var res *softft.Result
		if *trace > 0 {
			res, err = prog.Trace(in, stdout, *trace)
		} else {
			res, err = prog.Run(in)
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "ran %s: %d dynamic instrs, %d cycles, %d check failures\n",
			prog.Name(), res.Dyn, res.Cycles, res.CheckFailures)
	}

	if *inject > 0 {
		if bm == nil {
			return fmt.Errorf("-inject needs a built-in benchmark (fidelity judgment)")
		}
		if *resume && *journal == "" {
			return fmt.Errorf("-resume needs -journal")
		}
		c := bm.NewCampaign(*inject)
		c.Seed = *seed
		c.FaultModel = *fmodel
		c.Journal = *journal
		c.Resume = *resume
		c.TrialTimeout = *trialTimeout
		c.TargetCI = *targetCI

		// SIGINT and SIGTERM degrade gracefully: the campaign stops between
		// trials and the completed work is still reported (and journaled).
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		out, err := prog.InjectFaultsContext(ctx, bm.TestInput(), c)
		stop()
		if err != nil {
			return err
		}
		// Resume/quarantine/partial details go to stderr so stdout stays
		// byte-comparable across interrupted-and-resumed runs.
		if out.Replayed > 0 {
			fmt.Fprintf(stderr, "softft: resumed %d trials from %s\n", out.Replayed, *journal)
		}
		if out.Partial {
			for _, a := range out.Anomalies {
				fmt.Fprintf(stderr, "softft: trial %d quarantined (%s, seed %d)\n", a.Trial, a.Reason, a.Seed)
			}
			fmt.Fprintf(stderr, "softft: campaign interrupted after %d trials; rerun with -journal/-resume to continue\n", out.Trials)
			fmt.Fprintf(stderr, "softft: partial outcomes: %s\n", out)
			return nil
		}
		reportOutcomes(stdout, stderr, bm.Name(), m, out, *targetCI)
	}
	return nil
}

// reportOutcomes prints a finished campaign's report. The stdout lines
// are a pure function of the Outcomes, and the distributed journal merge
// is bit-reproducible, so a `submit -wait` and a solo `-inject` of the
// same spec print byte-identical stdout; run-shape details (quarantines,
// early stop) go to stderr.
func reportOutcomes(stdout, stderr io.Writer, bench string, m softft.Mode, out *softft.Outcomes, targetCI float64) {
	for _, a := range out.Anomalies {
		fmt.Fprintf(stderr, "softft: trial %d quarantined (%s, seed %d)\n", a.Trial, a.Reason, a.Seed)
	}
	if out.EarlyStopped {
		fmt.Fprintf(stderr, "softft: early stop at %d trials (target CI %.3f reached, %d trials saved)\n",
			out.Trials, targetCI, out.TrialsSaved)
	}
	fmt.Fprintf(stdout, "%s under %s: %s\n", bench, m, out)
	fmt.Fprintf(stdout, "  SDCs=%d (acceptable %d, unacceptable %d)  USDC rate %.2f%%\n",
		out.SDCs, out.ASDCs, out.USDCs, 100*out.USDCRate())
	if out.SWDetected > 0 {
		fmt.Fprintf(stdout, "  SWDetect breakdown: %d duplication, %d value, %d control-flow, %d abft\n",
			out.SWDetectedDup, out.SWDetectedValue, out.SWDetectedCFC, out.SWDetectedABFT)
	}
}
