package main

// The agg subcommand: group sweep JSONL records by chosen dimensions
// and emit n/mean/std/min/max/median summary tables (CSV or JSONL) for
// plotting. Streaming — O(groups × metrics) memory, so it summarizes
// outputs far larger than RAM; input files are consumed in argument
// order (stdin when none given). The median is exact for groups of up
// to 64 values and a P² streaming estimate for larger ones.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"faultexp/internal/sweep"
)

func cmdAgg(ctx context.Context, args []string) (err error) {
	ctx, stop := signalContext(ctx)
	defer stop()
	fs := flag.NewFlagSet("agg", flag.ExitOnError)
	by := fs.String("by", "measure,model,rate", "comma list of grouping dimensions ("+strings.Join(sweep.AggDims, "|")+"); empty = one global group")
	metrics := fs.String("metrics", "", "comma list of metric keys to keep (default all)")
	csvOut := fs.String("csv", "", `CSV output path ("-" = stdout; the default when -jsonl is unset)`)
	jsonlOut := fs.String("jsonl", "", `JSONL output path ("-" = stdout)`)
	quiet := fs.Bool("quiet", false, "suppress the summary line on stderr")
	// Accept flags and input files interleaved (`agg -by rate out.jsonl
	// -csv sum.csv` is the documented form): flag.Parse stops at the
	// first positional, so keep re-parsing the remainder.
	var inputs []string
	for rest := args; ; {
		fs.Parse(rest)
		rest = fs.Args()
		if len(rest) == 0 {
			break
		}
		inputs = append(inputs, rest[0])
		rest = rest[1:]
	}

	dims, err := sweep.ParseAggDims(*by)
	if err != nil {
		return err
	}
	var keep []string
	for _, m := range strings.Split(*metrics, ",") {
		if m = strings.TrimSpace(m); m != "" {
			keep = append(keep, m)
		}
	}
	agg, err := sweep.NewAggregator(dims, keep)
	if err != nil {
		return err
	}

	if len(inputs) == 0 {
		if err := agg.AddJSONL(ctxReader{ctx: ctx, r: os.Stdin}); err != nil {
			return err
		}
	}
	for _, path := range inputs {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		// SIGINT/SIGTERM aborts at the next record read.
		err = agg.AddJSONL(ctxReader{ctx: ctx, r: f})
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}

	if *csvOut == "" && *jsonlOut == "" {
		*csvOut = "-"
	}
	var outs outputs
	defer outs.close(&err)
	if *csvOut != "" {
		w, err := outs.open(*csvOut)
		if err != nil {
			return err
		}
		if err := agg.WriteCSV(w); err != nil {
			return err
		}
	}
	if *jsonlOut != "" {
		w, err := outs.open(*jsonlOut)
		if err != nil {
			return err
		}
		if err := agg.WriteJSONL(w); err != nil {
			return err
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "agg: %d records into %d summary rows", agg.Records, agg.NumRows())
		if agg.Skipped > 0 {
			fmt.Fprintf(os.Stderr, " (%d error records skipped)", agg.Skipped)
		}
		fmt.Fprintln(os.Stderr)
	}
	return nil
}
