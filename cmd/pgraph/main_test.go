package main

import (
	"flag"
	"reflect"
	"strings"
	"testing"

	"gpclust/internal/pgraph"
)

// parseConfig maps a command line to a Config as main does.
func parseConfig(args ...string) (pgraph.Config, error) {
	fs := flag.NewFlagSet("pgraph", flag.ContinueOnError)
	f := newFlags(fs)
	if err := fs.Parse(args); err != nil {
		return pgraph.Config{}, err
	}
	return f.config()
}

// TestConfigFromFlags: each plan flag lands in exactly one Plan field (or,
// for -batchwords auto and 0, only in AutoTune).
func TestConfigFromFlags(t *testing.T) {
	base, err := parseConfig("-gpu")
	if err != nil {
		t.Fatal(err)
	}
	want := pgraph.DefaultConfig()
	want.GPU, want.AutoTune, want.Filter = true, true, pgraph.FilterExact
	if !reflect.DeepEqual(base, want) {
		t.Fatalf("-gpu gives %+v, want DefaultConfig with GPU, AutoTune and the exact filter: %+v", base, want)
	}
	for _, tc := range []struct {
		args []string
		set  func(*pgraph.Config)
	}{
		{[]string{"-batchwords", "auto"}, func(c *pgraph.Config) {}},
		{[]string{"-batchwords", "0"}, func(c *pgraph.Config) { c.AutoTune = false }},
		{[]string{"-batchwords", "8000"}, func(c *pgraph.Config) { c.AutoTune, c.Plan.BudgetWords = false, 8000 }},
		{[]string{"-packed=false"}, func(c *pgraph.Config) { c.Plan.Packed = false }},
		{[]string{"-nobin"}, func(c *pgraph.Config) { c.Plan.LengthBin = false }},
		{[]string{"-workers", "3"}, func(c *pgraph.Config) { c.Workers = 3 }},
	} {
		got, err := parseConfig(append([]string{"-gpu"}, tc.args...)...)
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

// TestConfigUsageErrors: the flags main rejects with exit status 2.
func TestConfigUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-gpu", "-batchwords", "-1"}, `-batchwords must be "auto"`},
		{[]string{"-gpu", "-batchwords", "x"}, `-batchwords must be "auto"`},
		{[]string{"-gpu", "-batchwords", ""}, `-batchwords must be "auto"`},
		{[]string{"-batchwords", "8000"}, "-batchwords requires -gpu"},
		{[]string{"-nobin"}, "-nobin requires -gpu"},
		{[]string{"-packed=false"}, "-packed=false requires -gpu"},
		{[]string{"-filter", "cascade"}, `-filter must be "exact" or "lsh"`},
	} {
		_, err := parseConfig(tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want %q", tc.args, err, tc.want)
		}
	}
}
