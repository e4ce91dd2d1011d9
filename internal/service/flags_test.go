package service_test

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
)

const allFlagGroups = service.ServerFlags | service.FrontDeskFlags | service.ShardFlags

func flagDefaults() service.Flags {
	return service.Flags{Addr: ":1", Workload: "bio", Instance: 2, Config: service.Config{
		K: 7, Seed: 3, BatchWindow: 5 * time.Millisecond, BatchSize: 4, Shards: 1,
		Router: service.RouterHash, MemoryBudget: 9,
		CheckpointInterval: time.Second,
	}}
}

func bindAndParse(t *testing.T, groups service.FlagGroup, args ...string) (service.Flags, *flag.FlagSet, error) {
	t.Helper()
	f := flagDefaults()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(new(strings.Builder))
	f.Bind(fs, groups)
	err := f.Parse(args)
	return f, fs, err
}

// TestFlagsBindEveryField: each bound flag sets exactly its Config or
// admission.Config field, and an unset flag keeps the caller's default.
func TestFlagsBindEveryField(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		arg string
		set func(f *service.Flags)
	}{
		{"-addr=:2", func(f *service.Flags) { f.Addr = ":2" }},
		{"-workload=pfam", func(f *service.Flags) { f.Workload = "pfam" }},
		{"-instance=3", func(f *service.Flags) { f.Instance = 3 }},
		{"-k=11", func(f *service.Flags) { f.Config.K = 11 }},
		{"-seed=12", func(f *service.Flags) { f.Config.Seed = 12 }},
		{"-batch=-1", func(f *service.Flags) { f.Config.BatchSize = -1 }},
		{"-memory-budget=13", func(f *service.Flags) { f.Config.MemoryBudget = 13 }},
		{"-spill-dir=" + dir, func(f *service.Flags) { f.Config.SpillDir = dir }},
		{"-max-pending=14", func(f *service.Flags) { f.Config.Admission.MaxPending = 14 }},
		{"-deadline=15ms", func(f *service.Flags) { f.Config.Admission.Deadline = 15 * time.Millisecond }},
		{"-max-inflight=16", func(f *service.Flags) { f.Config.Admission.MaxInFlight = 16 }},
		{"-window=17ms", func(f *service.Flags) { f.Config.BatchWindow = 17 * time.Millisecond }},
		{"-shards=18", func(f *service.Flags) { f.Config.Shards = 18 }},
		{"-router=affinity", func(f *service.Flags) { f.Config.Router = service.RouterAffinity }},
		{"-user-rate=19.5", func(f *service.Flags) { f.Config.Admission.UserRate = 19.5 }},
		{"-total-rate=20.5", func(f *service.Flags) { f.Config.Admission.TotalRate = 20.5 }},
		{"-shard-id=21", func(f *service.Flags) { f.Config.ShardIDOffset = 21 }},
		{"-recover-dir=" + dir, func(f *service.Flags) { f.Config.CheckpointDir = dir }},
		{"-checkpoint-interval=22s", func(f *service.Flags) { f.Config.CheckpointInterval = 22 * time.Second }},
	}
	check := func(arg string, got, want service.Flags) {
		t.Helper()
		if got.Addr != want.Addr || got.Workload != want.Workload || got.Instance != want.Instance ||
			!reflect.DeepEqual(got.Config, want.Config) {
			t.Errorf("%q bound\n%+v\nwant\n%+v", arg, got, want)
		}
	}

	f, fs, err := bindAndParse(t, allFlagGroups)
	if err != nil {
		t.Fatal(err)
	}
	check("no flags", f, flagDefaults())
	declared := 0
	fs.VisitAll(func(*flag.Flag) { declared++ })
	if declared != len(cases) {
		t.Errorf("binder declares %d flags, the table covers %d", declared, len(cases))
	}

	for _, c := range cases {
		f, _, err := bindAndParse(t, allFlagGroups, c.arg)
		if err != nil {
			t.Fatalf("%s: %v", c.arg, err)
		}
		want := flagDefaults()
		c.set(&want)
		check(c.arg, f, want)
	}
}

// TestFlagsGroups: a binary gets only the groups it binds.
func TestFlagsGroups(t *testing.T) {
	for _, c := range []struct {
		groups service.FlagGroup
		absent []string
	}{
		{0, []string{"addr", "window", "shards", "router", "user-rate", "total-rate", "shard-id", "recover-dir", "checkpoint-interval"}},
		{service.ServerFlags | service.ShardFlags, []string{"shards", "router", "user-rate", "total-rate"}},
		{service.FrontDeskFlags, []string{"addr", "window", "shard-id"}},
	} {
		_, fs, err := bindAndParse(t, c.groups)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range c.absent {
			if fs.Lookup(name) != nil {
				t.Errorf("groups %b declare -%s", c.groups, name)
			}
		}
		if fs.Lookup("memory-budget") == nil {
			t.Errorf("groups %b lack the engine flags", c.groups)
		}
	}
}

// TestFlagsValidate: Parse rejects what service.New would panic on, and
// creates the spill directory it accepts.
func TestFlagsValidate(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "spill")
	if _, _, err := bindAndParse(t, 0, "-spill-dir", dir); err != nil {
		t.Fatalf("a creatable spill dir: %v", err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("spill dir not created: %v", err)
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-router", "bogus"},
		{"-shard-id", "-1"},
		{"-spill-dir", filepath.Join(file, "spill")},
		{"-recover-dir", filepath.Join(file, "recover")},
	} {
		if _, _, err := bindAndParse(t, allFlagGroups, args...); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}

// TestEngineFlagsSet names exactly the engine-only flags given.
func TestEngineFlagsSet(t *testing.T) {
	f, _, err := bindAndParse(t, service.ServerFlags|service.FrontDeskFlags,
		"-k", "3", "-window", "0", "-seed", "2", "-memory-budget", "5", "-router", "affinity", "-user-rate", "1")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f.EngineFlagsSet(), []string{"-memory-budget", "-window"}; !reflect.DeepEqual(got, want) {
		t.Errorf("EngineFlagsSet = %v, want %v", got, want)
	}
}
