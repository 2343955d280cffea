package cmdutil

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"joinpebble/internal/obs"
)

func TestUsageErrorClassification(t *testing.T) {
	usage := Usagef("bad flag %q", "x")
	if !IsUsage(usage) {
		t.Fatal("Usagef result must classify as usage")
	}
	if !IsUsage(fmt.Errorf("outer: %w", usage)) {
		t.Fatal("IsUsage must see through %w wrapping")
	}
	if IsUsage(errors.New("runtime failure")) {
		t.Fatal("plain errors are not usage errors")
	}
	if usage.Error() != `bad flag "x"` {
		t.Fatalf("message = %q", usage.Error())
	}
}

func TestExitCodePolicy(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{nil, 0},
		{Usagef("bad"), 2},
		{fmt.Errorf("wrap: %w", Usagef("bad")), 2},
		{errors.New("boom"), 1},
	} {
		if got := ExitCode(tc.err); got != tc.want {
			t.Errorf("ExitCode(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestExitNilIsNoOp(t *testing.T) {
	called := false
	osExit = func(int) { called = true }
	defer func() { osExit = os.Exit }()
	Exit("test", nil)
	if called {
		t.Fatal("Exit(nil) must not exit")
	}
}

func TestBindFlagsAndFinish(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := BindFlags(fs, "test", false)
	if fs.Lookup("metrics") == nil || fs.Lookup("trace") == nil {
		t.Fatal("metrics/trace flags not registered")
	}
	if fs.Lookup("pprof") != nil {
		t.Fatal("pprof must be opt-in")
	}
	mpath := filepath.Join(t.TempDir(), "m.json")
	if err := fs.Parse([]string{"-metrics", mpath}); err != nil {
		t.Fatal(err)
	}
	if err := o.Start(); err != nil {
		t.Fatal(err)
	}
	if err := o.Finish(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("-metrics file is not a snapshot: %v", err)
	}
}

func TestFinishTraceWithoutTracer(t *testing.T) {
	o := &Obs{cmd: "test", Trace: filepath.Join(t.TempDir(), "t.jsonl")}
	// Start was never called, so no tracer is active (unless another test
	// installed one globally — reset to be sure).
	obs.SetTracer(nil)
	if err := o.Finish(); err == nil {
		t.Fatal("Finish with -trace but no tracer must error")
	}
}

func TestParseByteSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"4096", 4096, true},
		{"12B", 12, true},
		{"2KB", 2e3, true},
		{"3MB", 3e6, true},
		{"4GB", 4e9, true},
		{"2KiB", 2 << 10, true},
		{"3MiB", 3 << 20, true},
		{"4GiB", 4 << 30, true},
		{"64mib", 64 << 20, true},
		{"1gB", 1e9, true},
		{"  8 KiB  ", 8 << 10, true},
		{"9223372036854775807", math.MaxInt64, true},
		{"9007199254740991KiB", 9007199254740991 << 10, true},
		{"", 0, false},
		{"KiB", 0, false},
		{"-1", 0, false},
		{"-1MiB", 0, false},
		{"1.5MiB", 0, false},
		{"12XB", 0, false},
		{"lots", 0, false},
		{"9223372036854775808", 0, false},
		{"9007199254740992KiB", 0, false},
		{"9223372036854775807KiB", 0, false},
		{"10000000000GiB", 0, false},
		{"10000000000GB", 0, false},
	} {
		got, err := ParseByteSize(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseByteSize(%q) = %d, want an error", tc.in, got)
		}
	}
}

// TestCacheSizeOverflowIsUsageError: an overflowing -cache-size must be
// a usage error (exit 2), never a wrapped negative cache capacity.
func TestCacheSizeOverflowIsUsageError(t *testing.T) {
	for _, size := range []string{"10000000000GiB", "9223372036854775807KiB"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		o := BindFlags(fs, "test", false)
		if err := fs.Parse([]string{"-cache-size", size}); err != nil {
			t.Fatal(err)
		}
		err := o.Start()
		if code := ExitCode(err); code != 2 {
			t.Fatalf("-cache-size %s: Start() = %v (exit %d), want a usage error (exit 2)", size, err, code)
		}
	}
}
