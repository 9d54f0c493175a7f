// Command estima is the CLI front end of the ESTIMA reproduction: it lists
// workloads and machines, collects stalled-cycle measurement series on the
// simulated machines, prints raw scaling curves, runs the full
// extrapolation pipeline (measure on few cores → predict a larger machine),
// and serves the same versioned API over HTTP (estima serve).
//
// Every command is a thin client of internal/service: flags are parsed into
// the same typed requests the HTTP daemon accepts, so the CLI, the server
// and library callers can never drift.
//
// Exit codes: 0 on success, 1 on execution errors, 2 on usage errors
// (unknown command, bad flags) with usage printed to stderr. Success paths
// never print to stderr.
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
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:])
	stop()
	os.Exit(code)
}

// run dispatches one invocation and returns its exit code. It is the unit
// the exit-code tests drive: 0 success, 1 execution error, 2 usage error.
func run(ctx context.Context, args []string) int {
	if len(args) < 1 {
		usage(os.Stderr)
		return 2
	}
	var err error
	switch args[0] {
	case "list":
		err = cmdList(ctx, args[1:])
	case "curve":
		err = cmdCurve(ctx, args[1:])
	case "collect":
		err = cmdCollect(ctx, args[1:])
	case "predict":
		err = cmdPredict(ctx, args[1:])
	case "sweep":
		err = cmdSweep(ctx, args[1:])
	case "diagnose":
		err = cmdDiagnose(ctx, args[1:])
	case "explore":
		err = cmdExplore(ctx, args[1:])
	case "serve":
		err = cmdServe(ctx, args[1:])
	case "-h", "--help", "help":
		usage(os.Stdout)
		return 0
	default:
		fmt.Fprintf(os.Stderr, "estima: unknown command %q\n", args[0])
		usage(os.Stderr)
		return 2
	}
	switch {
	case err == nil:
		return 0
	case errors.Is(err, flag.ErrHelp):
		// Asking for help is not an error: exit 0, matching the top-level
		// 'estima help' (the flag set already printed the defaults).
		return 0
	case isUsageError(err):
		// The flag set already printed the problem and its defaults to
		// stderr; usage errors exit 2, exactly like an unknown command.
		return 2
	default:
		fmt.Fprintf(os.Stderr, "estima: %v\n", err)
		return 1
	}
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: estima <command> [flags]

commands:
  list        list workloads and machines
  curve       print measured time and stall curves for a workload
  collect     collect a measurement series (CSV, or JSON with -o)
  predict     run the full ESTIMA prediction pipeline (-from replays a
              series collected with 'collect -o')
  sweep       predict the full workload x machine matrix in parallel
  diagnose    explain a scenario's predicted bottlenecks: category shares,
              crossover points, the scaling killer, and a relief knob
  explore     cover a workload parameter region with a budgeted fraction of
              the simulations, estimating the unmeasured remainder
  serve       serve the prediction API over HTTP (/v1/*); -worker and
              -coordinator -peers=... scale one fleet out over shards
`)
}

func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// usageError marks a flag-parse failure so run can exit 2 instead of 1.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func isUsageError(err error) bool {
	var ue usageError
	return errors.As(err, &ue)
}

// parseFlags parses a command's flags, wrapping failures as usage errors
// (the flag set itself already reported them to stderr).
func parseFlags(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return nil
}
