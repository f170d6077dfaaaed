package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"gpclust/internal/core"
)

// parseOptions maps a command line to Options as main does.
func parseOptions(args ...string) (core.Options, error) {
	fs := flag.NewFlagSet("gpclust", flag.ContinueOnError)
	f := newFlags(fs)
	if err := fs.Parse(args); err != nil {
		return core.Options{}, err
	}
	return f.options()
}

// TestOptionsFromFlags: each plan flag lands in exactly one Plan field (or,
// for -batch auto and 0, only in AutoTune), and -workers lands in Workers
// on every backend that runs a pool.
func TestOptionsFromFlags(t *testing.T) {
	base, err := parseOptions()
	if err != nil {
		t.Fatal(err)
	}
	want := core.DefaultOptions()
	want.AutoTune = true
	if !reflect.DeepEqual(base, want) {
		t.Fatalf("default flags give %+v, want DefaultOptions with AutoTune: %+v", base, want)
	}
	for _, tc := range []struct {
		args []string
		set  func(*core.Options)
	}{
		{[]string{"-batch", "auto"}, func(o *core.Options) {}},
		{[]string{"-batch", "0"}, func(o *core.Options) { o.AutoTune = false }},
		{[]string{"-batch", "5000"}, func(o *core.Options) { o.AutoTune, o.Plan.BudgetWords = false, 5000 }},
		{[]string{"-pipeline"}, func(o *core.Options) { o.Plan.Lanes = 2 }},
		{[]string{"-gpuagg"}, func(o *core.Options) { o.Plan.DeviceAggregate = true }},
		{[]string{"-packed=false"}, func(o *core.Options) { o.Plan.Packed = false }},
		{[]string{"-backend", "parallel", "-workers", "3"}, func(o *core.Options) { o.Workers = 3 }},
		{[]string{"-backend", "gpu", "-workers", "3"}, func(o *core.Options) { o.Workers = 3 }},
		{[]string{"-backend", "serial"}, func(o *core.Options) {}},
	} {
		got, err := parseOptions(tc.args...)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		want := base
		tc.set(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: got %+v\nwant %+v", tc.args, got, want)
		}
	}
}

// TestOptionsUsageErrors: the flags main rejects with exit status 2.
func TestOptionsUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-batch", "-1"}, `-batch must be "auto"`},
		{[]string{"-batch", "x"}, `-batch must be "auto"`},
		{[]string{"-batch", ""}, `-batch must be "auto"`},
		{[]string{"-backend", "serial", "-workers", "2"}, "-workers requires -backend parallel or gpu"},
		{[]string{"-backend", "parallel", "-pipeline"}, "-pipeline requires -backend gpu"},
		{[]string{"-backend", "serial", "-packed=false"}, "-packed=false requires -backend gpu"},
		{[]string{"-backend", "bogus"}, `unknown backend "bogus"`},
		{[]string{"-retries=-1"}, "-retries must be >= 0"},
	} {
		_, err := parseOptions(tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.want)
		}
	}
}
