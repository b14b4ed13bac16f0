package main

// The merge subcommand: reassemble the per-shard JSONL outputs of
// `faultexp sweep -shard i/m` runs into a single stream byte-identical
// to the unsharded run (and optionally re-emit it as long-format CSV).

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"faultexp/internal/sweep"
)

func cmdMerge(ctx context.Context, args []string) (err error) {
	ctx, stop := signalContext(ctx)
	defer stop()
	fs := flag.NewFlagSet("merge", flag.ExitOnError)
	specFile := fs.String("spec", "", "JSON grid spec the shards were run with; verifies every record lands at its exact cell position")
	dir := fs.String("dir", "", "directory holding a complete shard-<i>-of-<m>.jsonl set (a coordinator job directory holds shard-0-of-1.jsonl) — alternative to listing the shard files")
	jsonlOut := fs.String("jsonl", "", `merged JSONL output path ("-" = stdout; default stdout when -csv is unset)`)
	csvOut := fs.String("csv", "", `merged CSV output path ("-" = stdout)`)
	quiet := fs.Bool("quiet", false, "suppress the summary line on stderr")
	fs.Parse(args)
	var spec *sweep.Spec
	if *specFile != "" {
		f, err := os.Open(*specFile)
		if err != nil {
			return err
		}
		spec, err = sweep.Load(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	shardPaths := fs.Args()
	if *dir != "" {
		if len(shardPaths) > 0 {
			return fmt.Errorf("merge: -dir and positional shard files are mutually exclusive")
		}
		// The discovery enforces a complete, single-split set in shard
		// order — and the coordinator's durable job store keeps each job
		// as shard-0-of-1.jsonl, so `-dir store/job-N` merges a fabric
		// job.
		paths, err := sweep.ShardFiles(*dir)
		if err != nil {
			return err
		}
		shardPaths = paths
	}
	if len(shardPaths) == 0 {
		return fmt.Errorf("usage: faultexp merge [-jsonl out.jsonl] [-csv out.csv] -dir jobdir | shard0.jsonl shard1.jsonl … (in -shard 0/m..m-1/m order)")
	}

	var readers []io.Reader
	for _, p := range shardPaths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		defer f.Close()
		// SIGINT/SIGTERM aborts the merge at the next shard read instead
		// of grinding through the remaining gigabytes.
		readers = append(readers, ctxReader{ctx: ctx, r: f})
	}

	if *jsonlOut == "" && *csvOut == "" {
		*jsonlOut = "-"
	}
	var outs outputs
	defer outs.close(&err)
	var jsonlW io.Writer
	if *jsonlOut != "" {
		if jsonlW, err = outs.open(*jsonlOut); err != nil {
			return err
		}
	}
	var csvW sweep.Writer
	if *csvOut != "" {
		w, err := outs.open(*csvOut)
		if err != nil {
			return err
		}
		csvW = sweep.NewCSV(w)
	}

	n, err := sweep.MergeShards(readers, jsonlW, csvW, spec)
	if err != nil {
		return err
	}
	if !*quiet {
		hint := ""
		if spec == nil {
			// Without the spec, an equal-length subset or swap of the
			// shard files is undetectable — tell the user how to close
			// that gap.
			hint = " (pass -spec to verify each record's cell position)"
		}
		fmt.Fprintf(os.Stderr, "merge: %d records from %d shards%s\n", n, len(shardPaths), hint)
	}
	return nil
}
