package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/sched"
	"repro/internal/service"
)

// newService builds the one Service every command talks to; the CLI is a
// thin client of the same facade 'estima serve' exposes over HTTP.
func newService(cacheDir string) (*service.Service, error) {
	return service.New(service.Config{CacheDir: cacheDir})
}

func cmdList(ctx context.Context, args []string) error {
	fs := newFlagSet("list")
	verbose := fs.Bool("v", false, "also print each family's parameter schema (spec grammar: name?key=val,key=val)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	svc, err := newService("")
	if err != nil {
		return err
	}
	resp, err := svc.List(ctx, service.ListRequest{Verbose: *verbose})
	if err != nil {
		return err
	}
	wlParams := map[string][]service.ParamInfo{}
	for _, f := range resp.WorkloadFamilies {
		wlParams[f.Name] = f.Params
	}
	machParams := map[string][]service.ParamInfo{}
	for _, f := range resp.MachineFamilies {
		machParams[f.Name] = f.Params
	}
	fmt.Println("workloads:")
	for _, n := range resp.Workloads {
		fmt.Printf("  %s\n", n)
		printParams(wlParams[n])
	}
	fmt.Println("machines:")
	for _, m := range resp.Machines {
		fmt.Printf("  %-8s %2d cores (%d sockets x %d chips x %d cores) @ %.1f GHz [%s]\n",
			m.Name, m.Cores, m.Sockets, m.ChipsPerSocket, m.CoresPerChip, m.FreqGHz, m.Arch)
		printParams(machParams[m.Name])
	}
	return nil
}

// printParams renders one family's parameter schema under its list entry
// (nothing for fixed workloads or non-verbose lists).
func printParams(params []service.ParamInfo) {
	for _, p := range params {
		fmt.Printf("      %-10s %-6s default %-8s range [%s, %s]  %s\n",
			p.Key, p.Type, p.Default, p.Min, p.Max, p.Help)
	}
}

func cmdCurve(ctx context.Context, args []string) error {
	fs := newFlagSet("curve")
	workload := fs.String("w", "", "workload name")
	mach := fs.String("m", "Opteron", "machine name")
	coreSpec := fs.String("cores", "all", "core counts, e.g. 1-12 or 1,2,4,8")
	scale := fs.Float64("scale", 1, "dataset scale factor")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	// Same grammar the service enforces (internal/sched): a schedule typo
	// fails here, before any work is queued; the service additionally
	// bounds the schedule against the resolved machine.
	if err := sched.Validate(*coreSpec); err != nil {
		return err
	}
	svc, err := newService("")
	if err != nil {
		return err
	}
	resp, err := svc.Curve(ctx, service.CurveRequest{
		Workload: *workload,
		Machine:  *mach,
		Cores:    *coreSpec,
		Scale:    *scale,
	})
	if err != nil {
		return err
	}
	series := resp.Decoded
	codes := series.EventCodes()
	fmt.Printf("# %s on %s (scale %.2f)\n", resp.Workload, resp.Machine, *scale)
	fmt.Printf("%5s %12s %14s", "cores", "time(s)", "stalls/core")
	for _, c := range codes {
		fmt.Printf(" %12s", c)
	}
	fmt.Printf(" %12s %12s\n", "lock+barr", "tx-abort")
	spc := series.StallsPerCore(true, false)
	for i, smp := range series.Samples {
		fmt.Printf("%5d %12.6f %14.4g", smp.Cores, smp.Seconds, spc[i])
		for _, c := range codes {
			fmt.Printf(" %12.4g", smp.HW[c])
		}
		fmt.Printf(" %12.4g %12.4g\n",
			smp.Soft["lock-spin"]+smp.Soft["barrier-wait"],
			smp.Soft["tx-aborted"]+smp.Soft["tx-backoff"])
	}
	return nil
}

func cmdCollect(ctx context.Context, args []string) error {
	fs := newFlagSet("collect")
	workload := fs.String("w", "", "workload name")
	mach := fs.String("m", "Opteron", "machine name")
	coreSpec := fs.String("cores", "all", "core counts")
	scale := fs.Float64("scale", 1, "dataset scale factor")
	out := fs.String("o", "", "write the series as JSON to this file (for 'predict -from')")
	cacheDir := fs.String("cache", "", "measurement store directory, reused across runs: any core schedule replays the samples stored there and simulates only the rest (the replay notice is only printed with -o, since CSV owns stdout)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if err := sched.Validate(*coreSpec); err != nil {
		return err
	}
	svc, err := newService(*cacheDir)
	if err != nil {
		return err
	}
	resp, err := svc.Collect(ctx, service.CollectRequest{
		Workload: *workload,
		Machine:  *mach,
		Cores:    *coreSpec,
		Scale:    *scale,
	})
	if err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, resp.Series, 0o644); err != nil {
			return err
		}
		if resp.CacheHit {
			fmt.Printf("replayed the measurement series from %s\n", resp.StoreDir)
		}
		fmt.Printf("wrote %d samples of %s on %s to %s\n",
			resp.Samples, resp.Workload, resp.Machine, *out)
		return nil
	}
	// CSV to stdout: cores, seconds, each backend event, each soft category.
	series := resp.Decoded
	codes := series.EventCodes()
	soft := series.SoftNames()
	header := []string{"cores", "seconds"}
	header = append(header, codes...)
	header = append(header, soft...)
	fmt.Println(strings.Join(header, ","))
	for _, smp := range series.Samples {
		row := []string{strconv.Itoa(smp.Cores), fmt.Sprintf("%.9f", smp.Seconds)}
		for _, c := range codes {
			row = append(row, fmt.Sprintf("%.0f", smp.HW[c]))
		}
		for _, s := range soft {
			row = append(row, fmt.Sprintf("%.0f", smp.Soft[s]))
		}
		fmt.Println(strings.Join(row, ","))
	}
	return nil
}
