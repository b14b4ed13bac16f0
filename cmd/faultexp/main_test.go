package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"faultexp/internal/sweep"
)

// TestListPrintsMeasuresAndModels pins the discovery surface: `faultexp
// list` must enumerate every registered sweep measure and fault model
// (and still list the experiments), so the CLI is the single place to
// see what a grid can sweep.
func TestListPrintsMeasuresAndModels(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	listErr := cmdList()
	w.Close()
	os.Stdout = old
	out, readErr := io.ReadAll(r)
	if listErr != nil {
		t.Fatalf("cmdList: %v", listErr)
	}
	if readErr != nil {
		t.Fatalf("reading captured output: %v", readErr)
	}
	s := string(out)
	for _, m := range sweep.Measures() {
		if !strings.Contains(s, m) {
			t.Errorf("list output missing measure %q", m)
		}
	}
	for _, m := range sweep.Models() {
		if !strings.Contains(s, m) {
			t.Errorf("list output missing fault model %q", m)
		}
	}
	for _, id := range []string{"E1 ", "E19"} {
		if !strings.Contains(s, id) {
			t.Errorf("list output missing experiment %q", id)
		}
	}
}

// TestOneOffCommandsRejectOutOfRangeFlags pins that percolate, prune and
// prune2 refuse flag values outside the range the computation is
// defined on, instead of printing NaN curves, -Inf bounds or silently
// falling back to a default.
func TestOneOffCommandsRejectOutOfRangeFlags(t *testing.T) {
	family := []string{"-family", "torus", "-size", "4x4"}
	cases := []struct {
		cmd  func([]string) error
		name string
		flag string
		args []string
	}{
		{cmdPercolate, "percolate", "-mode", []string{"-mode", "bnd"}},
		{cmdPercolate, "percolate", "-trials", []string{"-trials", "0"}},
		{cmdPercolate, "percolate", "-points", []string{"-points", "1"}},
		{cmdPrune, "prune", "-faults", []string{"-faults", "-3"}},
		{cmdPrune, "prune", "-eps", []string{"-eps", "1"}},
		{cmdPrune, "prune", "-eps", []string{"-eps", "0"}},
		{cmdPrune, "prune", "-eps", []string{"-eps", "NaN"}},
		{cmdPrune2, "prune2", "-p", []string{"-p", "1.5"}},
		{cmdPrune2, "prune2", "-p", []string{"-p", "-0.1"}},
		{cmdPrune2, "prune2", "-eps", []string{"-eps", "-0.5"}},
	}
	for _, c := range cases {
		args := append(append([]string(nil), family...), c.args...)
		err := c.cmd(args)
		if err == nil {
			t.Errorf("%s %v: accepted, want an error", c.name, c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s %v: error %q does not name %s", c.name, c.args, err, c.flag)
		}
	}
}

// failingCloser is an output file whose Close reports a failed write.
type failingCloser struct{ closes *int }

func (f failingCloser) Close() error {
	*f.closes++
	return errors.New("close: no space left on device")
}

// TestOutputsCloseReportsFailure pins the output helper's contract, used
// the way the commands use it (deferred on a named error result): every
// collected file is closed, a successful run returns the first Close
// error instead of exiting 0, a failed run keeps its own error, and
// stdout is handed out but never closed.
func TestOutputsCloseReportsFailure(t *testing.T) {
	closes := 0
	run := func(runErr error) (err error) {
		outs := outputs{failingCloser{&closes}, failingCloser{&closes}}
		defer outs.close(&err)
		return runErr
	}
	if err := run(nil); err == nil || !strings.Contains(err.Error(), "no space left") {
		t.Errorf("successful run with a failing Close returned %v, want the Close error", err)
	}
	if closes != 2 {
		t.Errorf("%d of 2 files closed", closes)
	}
	runErr := errors.New("run failed")
	if err := run(runErr); err != runErr {
		t.Errorf("failed run returned %v, want its own error", err)
	}

	var outs outputs
	if w, err := outs.open("-"); err != nil || w != io.Writer(os.Stdout) || len(outs) != 0 {
		t.Errorf(`open("-") = %v, %v with %d collected, want stdout and nothing to close`, w, err, len(outs))
	}
	path := filepath.Join(t.TempDir(), "out.jsonl")
	w, err := outs.open(path)
	if err != nil {
		t.Fatal(err)
	}
	io.WriteString(w, "{}\n")
	err = nil
	outs.close(&err)
	if b, rerr := os.ReadFile(path); err != nil || rerr != nil || string(b) != "{}\n" {
		t.Errorf("file output: close err %v, read %q (%v)", err, b, rerr)
	}
}
