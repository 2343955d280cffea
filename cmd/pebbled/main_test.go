package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"

	"joinpebble/internal/engine/cmdutil"
	"joinpebble/internal/tsp"
)

func TestCheckExactLimit(t *testing.T) {
	for _, limit := range []int{0, 1, tsp.MaxExactCities} {
		if err := checkExactLimit(limit); err != nil {
			t.Errorf("checkExactLimit(%d) = %v, want nil", limit, err)
		}
	}
	for _, limit := range []int{-1, tsp.MaxExactCities + 1, 30} {
		if code := cmdutil.ExitCode(checkExactLimit(limit)); code != 2 {
			t.Errorf("checkExactLimit(%d): exit %d, want a usage error (exit 2)", limit, code)
		}
	}
}

// TestExactLimitFlagExitsTwo drives the built binary: an over-cap or
// negative -exact-limit must stop pebbled before it listens, with exit 2
// and the command named on stderr.
func TestExactLimitFlagExitsTwo(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "pebbled")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building pebbled: %v\n%s", err, out)
	}
	for _, limit := range []int{tsp.MaxExactCities + 1, -1} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-exact-limit", strconv.Itoa(limit))
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("-exact-limit %d: %v, want exit 2 (stderr: %s)", limit, err, stderr.String())
		}
		if !bytes.HasPrefix(stderr.Bytes(), []byte("pebbled: ")) {
			t.Fatalf("stderr must name the command: %q", stderr.String())
		}
	}
}
