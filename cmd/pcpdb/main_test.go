package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildBinary compiles pcpdb once per test run.
func buildBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "pcpdb")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building pcpdb: %v\n%s", err, out)
	}
	return bin
}

func run(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestCLIEndToEnd(t *testing.T) {
	bin := buildBinary(t)
	dir := filepath.Join(t.TempDir(), "db")

	if out, err := run(t, bin, "-dir", dir, "put", "alpha", "one"); err != nil {
		t.Fatalf("put: %v\n%s", err, out)
	}
	out, err := run(t, bin, "-dir", dir, "get", "alpha")
	if err != nil || strings.TrimSpace(out) != "one" {
		t.Fatalf("get: %q, %v", out, err)
	}
	if out, err := run(t, bin, "-dir", dir, "del", "alpha"); err != nil {
		t.Fatalf("del: %v\n%s", err, out)
	}
	if _, err := run(t, bin, "-dir", dir, "get", "alpha"); err == nil {
		t.Fatal("get after del should exit nonzero")
	}

	// Load a small workload on a simulated device (timescale 0 = fast) and
	// inspect stats; then scan a prefix.
	out, err = run(t, bin, "-dir", dir, "-sim", "ssd", "-timescale", "0",
		"-n", "2000", "-vsize", "50", "load")
	if err != nil || !strings.Contains(out, "loaded 2000 entries") {
		t.Fatalf("load: %v\n%s", err, out)
	}
	out, err = run(t, bin, "-dir", dir, "scan", "user")
	if err != nil {
		t.Fatalf("scan: %v\n%s", err, out)
	}
	if !strings.Contains(out, "user") {
		t.Fatalf("scan produced no keys:\n%s", out)
	}
	out, err = run(t, bin, "-dir", dir, "stats")
	if err != nil || !strings.Contains(out, "levels:") {
		t.Fatalf("stats: %v\n%s", err, out)
	}
	if !regexp.MustCompile(`(?m)^lsm_puts \d+$`).MatchString(out) {
		t.Fatalf("stats printed no lsm_puts metric line:\n%s", out)
	}
	if out, err = run(t, bin, "-dir", dir, "compact"); err != nil {
		t.Fatalf("compact: %v\n%s", err, out)
	}
}

func TestCLIBadUsage(t *testing.T) {
	bin := buildBinary(t)
	if _, err := run(t, bin); err == nil {
		t.Fatal("no command should exit nonzero")
	}
	if _, err := run(t, bin, "frobnicate"); err == nil {
		t.Fatal("unknown command should exit nonzero")
	}
	if _, err := run(t, bin, "put", "only-key"); err == nil {
		t.Fatal("missing args should exit nonzero")
	}
}
