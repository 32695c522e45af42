package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"cacheagg/internal/core"
	"cacheagg/internal/runs"
)

func TestParseStrategy(t *testing.T) {
	cases := []struct {
		name   string
		passes int
		want   string
	}{
		{"adaptive", 1, "Adaptive(α₀=11, c=10)"},
		{"hashing-only", 1, "HashingOnly"},
		{"partition-always", 2, "PartitionAlways(2)"},
		{"partition-only", 1, "PartitionOnly"},
	}
	for _, c := range cases {
		s, err := parseStrategy(c.name, c.passes)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if s.Name() != c.want {
			t.Fatalf("%s: got %q, want %q", c.name, s.Name(), c.want)
		}
	}
	if _, err := parseStrategy("nope", 1); err == nil {
		t.Fatal("expected error for unknown strategy")
	}
}

func TestReadKeysText(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.txt")
	if err := os.WriteFile(path, []byte("5\n7\n5\n18446744073709551615\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := readKeys(path, "text")
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{5, 7, 5, ^uint64(0)}
	if len(keys) != len(want) {
		t.Fatalf("got %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("got %v, want %v", keys, want)
		}
	}
}

func TestReadKeysBinary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "keys.bin")
	want := []uint64{1, 2, 3, 1 << 60}
	buf := make([]byte, 8*len(want))
	for i, k := range want {
		binary.LittleEndian.PutUint64(buf[i*8:], k)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := readKeys(path, "binary")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("got %v, want %v", keys, want)
		}
	}
}

func TestReadKeysErrors(t *testing.T) {
	if _, err := readKeys("/nonexistent/file", "text"); err == nil {
		t.Fatal("missing file should error")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.txt")
	os.WriteFile(bad, []byte("not-a-number\n"), 0o644)
	if _, err := readKeys(bad, "text"); err == nil {
		t.Fatal("garbage text should error")
	}
	if _, err := readKeys(bad, "weird"); err == nil {
		t.Fatal("unknown format should error")
	}
	// Truncated binary file.
	trunc := filepath.Join(dir, "trunc.bin")
	os.WriteFile(trunc, []byte{1, 2, 3}, 0o644)
	if _, err := readKeys(trunc, "binary"); err == nil {
		t.Fatal("truncated binary should error")
	}
}

func TestVerifyDistinct(t *testing.T) {
	keys := []uint64{3, 3, 9, 1}
	if err := verifyDistinct(keys, []uint64{3, 9, 1}); err != nil {
		t.Fatal(err)
	}
	// Wrong count.
	if err := verifyDistinct(keys, []uint64{3, 9}); err == nil {
		t.Fatal("missing group should fail")
	}
	// Duplicate.
	if err := verifyDistinct(keys, []uint64{3, 3, 9}); err == nil {
		t.Fatal("duplicate group should fail")
	}
	// Phantom.
	if err := verifyDistinct(keys, []uint64{3, 9, 5}); err == nil {
		t.Fatal("phantom group should fail")
	}
}

func TestExitCodeMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{nil, exitOK},
		{errors.New("anything"), exitFailure},
		{fmt.Errorf("wrap: %w", core.ErrMemoryBudget), exitMemBudget},
		{fmt.Errorf("wrap: %w", runs.ErrSpillBudget), exitSpillBudget},
		{fmt.Errorf("wrap: %w", context.DeadlineExceeded), exitDeadline},
	}
	for _, c := range cases {
		if got := exitCode(c.err); got != c.want {
			t.Fatalf("exitCode(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestMain lets the test binary impersonate the real command: CLI tests
// re-exec themselves with AGGRUN_BE_MAIN=1 and drive main() for real exit
// codes and stderr.
func TestMain(m *testing.M) {
	if os.Getenv("AGGRUN_BE_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSelf executes this test binary as the aggrun command.
func runSelf(t *testing.T, args ...string) (exitCode int, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "AGGRUN_BE_MAIN=1")
	var errBuf bytes.Buffer
	cmd.Stderr = &errBuf
	err := cmd.Run()
	if err == nil {
		return 0, errBuf.String()
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("exec: %v", err)
	}
	return ee.ExitCode(), errBuf.String()
}

func TestCLITimeoutExitsCleanly(t *testing.T) {
	code, stderr := runSelf(t, "-n", "100000", "-timeout", "1ns")
	if code != exitDeadline {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitDeadline, stderr)
	}
	if !strings.Contains(stderr, "aggrun:") || !strings.Contains(stderr, "-timeout") {
		t.Fatalf("want a one-line timeout error, got: %q", stderr)
	}
	if strings.Contains(stderr, "goroutine") {
		t.Fatalf("stderr contains a stack trace: %q", stderr)
	}
}

func TestCLIMemoryBudgetExitCode(t *testing.T) {
	// A 1 MiB budget cannot hold even one worker's machinery for an
	// all-distinct input: typed failure, exit 3.
	code, stderr := runSelf(t, "-n", "1000000", "-k", "18446744073709551615",
		"-workers", "2", "-budget", "1048576")
	if code != exitMemBudget {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitMemBudget, stderr)
	}
	if !strings.Contains(stderr, "memory budget") {
		t.Fatalf("want a memory-budget error, got %q", stderr)
	}
}

func TestCLISpillDegradesAndSucceeds(t *testing.T) {
	// Same over-budget query with -spill: degrade out-of-core and succeed,
	// with the verified result.
	code, stderr := runSelf(t, "-n", "1000000", "-k", "18446744073709551615",
		"-cache", "32768", "-workers", "2", "-budget", "4194304", "-spill", "-verify")
	if code != exitOK {
		t.Fatalf("exit code = %d, want 0 (stderr: %s)", code, stderr)
	}
}

func TestCLISpillBudgetExitCode(t *testing.T) {
	// Degraded run with a 1 KiB spill cap: the spill phase must fail fast
	// with the typed spill-budget error, exit 4.
	code, stderr := runSelf(t, "-n", "1000000", "-k", "18446744073709551615",
		"-cache", "32768", "-workers", "2", "-budget", "4194304", "-spill", "-spill-budget", "1024")
	if code != exitSpillBudget {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, exitSpillBudget, stderr)
	}
	if !strings.Contains(stderr, "spill budget") {
		t.Fatalf("want a spill-budget error, got %q", stderr)
	}
}

// TestCLISpillWithoutBudgetRunsOutOfCore: -spill without -budget sends
// every level-0 bucket through disk and succeeds with the verified result.
func TestCLISpillWithoutBudgetRunsOutOfCore(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-n", "200000", "-k", "50000", "-workers", "2", "-spill", "-verify")
	cmd.Env = append(os.Environ(), "AGGRUN_BE_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v: %s", err, out)
	}
	if !strings.Contains(string(out), "spilled ") || !strings.Contains(string(out), " 0 level-0 buckets resident") {
		t.Fatalf("want every level-0 bucket spilled, got:\n%s", out)
	}
}

func TestCLIUsageExitCodes(t *testing.T) {
	for _, args := range [][]string{
		{"-spill-budget", "1024"},          // -spill-budget without -spill
		{"-routine", "auto"},               // a deleted flag is an unknown flag
		{"-not-a-flag"},                    // unknown flag (package flag)
		{"-budget", "zero point five MiB"}, // unparsable value (package flag)
	} {
		code, stderr := runSelf(t, args...)
		if code != exitUsage {
			t.Fatalf("%v: exit code = %d, want %d (stderr: %s)", args, code, exitUsage, stderr)
		}
	}
}

func TestCLIBadFlagsExitCleanly(t *testing.T) {
	for _, args := range [][]string{
		{"-strategy", "bogus"},
		{"-dist", "not-a-distribution"},
		{"-in", "/definitely/missing/file", "-format", "binary"},
		{"-in", "/dev/null", "-format", "bogus"},
	} {
		code, stderr := runSelf(t, args...)
		if code == 0 {
			t.Fatalf("%v: expected nonzero exit", args)
		}
		if strings.Contains(stderr, "goroutine") {
			t.Fatalf("%v: stderr contains a stack trace: %q", args, stderr)
		}
		if !strings.Contains(stderr, "aggrun:") {
			t.Fatalf("%v: want one-line aggrun error, got %q", args, stderr)
		}
	}
}

func TestCLIGenerousTimeoutSucceeds(t *testing.T) {
	code, stderr := runSelf(t, "-n", "20000", "-k", "100", "-timeout", "1m", "-verify")
	if code != 0 {
		t.Fatalf("exit code = %d, stderr: %s", code, stderr)
	}
}

// TestCLIGeneralKeys runs the general-key mode end to end for both key
// shapes, with the map-keyed verification on.
func TestCLIGeneralKeys(t *testing.T) {
	for _, kt := range []string{"strings", "composite2"} {
		code, stderr := runSelf(t, "-keytype", kt, "-dist", "zipf",
			"-n", "50000", "-k", "2000", "-verify", "-top", "2")
		if code != 0 {
			t.Fatalf("%s: exit code = %d, stderr: %s", kt, code, stderr)
		}
	}
}

// TestCLIGeneralKeysUsageErrors pins the typed usage refusals of flags
// the general-key path does not support.
func TestCLIGeneralKeysUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-keytype", "martian"},
		{"-keytype", "strings", "-in", "/dev/null"},
		{"-keytype", "strings", "-trace", "/tmp/t.jsonl"},
		{"-keytype", "strings", "-strategy", "hashing-only"},
		{"-keytype", "composite2", "-budget", "1", "-spill"},
	} {
		code, stderr := runSelf(t, args...)
		if code != exitUsage {
			t.Fatalf("%v: exit code = %d, want %d (stderr: %s)", args, code, exitUsage, stderr)
		}
	}
}
