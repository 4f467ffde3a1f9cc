package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the goldens under testdata")

// goldenCases are the four apps at their defaults plus every stampsim
// command in README.md, the package doc and the verify notes. They run
// in order in one directory, so the restores read the checkpoints the
// write before them left; $DIR in an argument names that directory and
// stands for it in a golden.
var goldenCases = []struct{ name, args string }{
	{"jacobi", ""},
	{"apsp", "-app apsp"},
	{"bank", "-app bank"},
	{"airline", "-app airline"},
	{"jacobi-iters", "-app jacobi -n 32 -iters 6"},
	{"apsp-async", "-app apsp -n 16 -mode async"},
	{"apsp-bulksync", "-app apsp -n 16 -mode bulksync"},
	{"bank-timestamp", "-app bank -n 64 -procs 16 -manager timestamp"},
	{"bank-karma", "-app bank -n 64 -procs 16 -manager karma"},
	{"airline-partial", "-app airline -n 8 -procs 8 -policy partial"},
	{"airline-strict", "-app airline -n 8 -procs 8 -policy strict"},
	{"generic-jacobi", "-machine generic -app jacobi -n 16"},
	{"jacobi-trace", "-app jacobi -n 8 -trace"},
	{"jacobi-race", "-app jacobi -n 8 -race"},
	{"bank-race", "-app bank -n 16 -procs 4 -race"},
	{"jacobi-trace-out", "-app jacobi -n 32 -trace-out $DIR/t.json"},
	{"jacobi-metrics-out", "-app jacobi -n 32 -metrics-out $DIR/m.prom"},
	{"jacobi-profile", "-app jacobi -n 32 -profile"},
	{"jacobi-sinks", "-app jacobi -n 32 -trace-out $DIR/t.json -metrics-out $DIR/m.prom -profile"},
	{"apsp-sinks", "-app apsp -n 16 -metrics-out $DIR/m2.prom -profile"},
	{"ckpt-write", "-app jacobi -n 32 -iters 12 -ckpt-dir $DIR/ck -ckpt-every 2"},
	{"ckpt-restore", "-app jacobi -n 32 -iters 12 -ckpt-dir $DIR/ck -ckpt-restore"},
	{"ckpt-restore-every", "-app jacobi -n 32 -iters 12 -ckpt-dir $DIR/ck -ckpt-every 2 -ckpt-restore"},
}

// TestGolden pins each case's stdout (testdata/<name>.stdout) and the
// bytes of the files it writes (testdata/<name>.sha256, in sha256sum's
// format); every case exits 0.
func TestGolden(t *testing.T) {
	dir := t.TempDir()
	for _, c := range goldenCases {
		args := strings.Fields(strings.ReplaceAll(c.args, "$DIR", dir))
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%s: stampsim %s exited %d: %s", c.name, c.args, code, stderr.Bytes())
		}
		checkGolden(t, c.name+".stdout", bytes.ReplaceAll(stdout.Bytes(), []byte(dir), []byte("$DIR")))
		var sums bytes.Buffer
		for i, a := range args[:max(len(args)-1, 0)] {
			if a == "-trace-out" || a == "-metrics-out" {
				b, err := os.ReadFile(args[i+1])
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&sums, "%x  %s\n", sha256.Sum256(b), filepath.Base(args[i+1]))
			}
		}
		if sums.Len() > 0 {
			checkGolden(t, c.name+".sha256", sums.Bytes())
		}
	}
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < min(len(g), len(w)); i++ {
		if !bytes.Equal(g[i], w[i]) {
			t.Fatalf("%s: line %d differs:\n got %s\nwant %s", name, i+1, g[i], w[i])
		}
	}
	t.Fatalf("%s: %d lines, want %d", name, len(g), len(w))
}

// TestUsageErrors: a bad command line, a stray knob included, exits 2
// before printing anything and says why on stderr.
func TestUsageErrors(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ args, stderr string }{
		{"-app apsp -mode bulk", `unknown apsp mode "bulk" (want async | bulksync)`},
		{"-app airline -policy Strict", `unknown policy "Strict" (want partial | strict)`},
		{"-app bank -manager polite", `"polite"`},
		{"-app nope", `unknown app "nope"`},
		{"-machine vax", `"vax"`},
		{"-app jacobi -procs 8", `app "jacobi" does not take procs`},
		{"-app jacobi -manager karma", `app "jacobi" does not take mode/manager/policy`},
		{"-app apsp -iters 4", `app "apsp" does not take procs/iters`},
		{"-app bank -mode async", `app "bank" does not take iters/mode/ckpt`},
		{"-app bank -policy strict", `app "bank" does not take policy`},
		{"-app apsp -n 16 -mode async -skew 4", "flag provided but not defined: -skew"},
		{"-app jacobi -n 2000", "n must be in [2, 1024]"},
		{"-app bank -procs 2000", "procs must be in [1, 1024]"},
		{"-app jacobi -iters 20000", "iters must be in [0, 10000]"},
		{"-app jacobi -ckpt-dir $DIR/ck", "checkpointing requires a fixed iteration count (iters > 0)"},
		{"-app jacobi -iters 4 -ckpt-restore", "-ckpt-restore requires -ckpt-dir"},
		{"-app jacobi -iters 4 -ckpt-every 2", "-ckpt-every requires -ckpt-dir"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(strings.Fields(strings.ReplaceAll(c.args, "$DIR", dir)), &stdout, &stderr)
		if code != 2 || stdout.Len() != 0 || !strings.Contains(stderr.String(), c.stderr) {
			t.Errorf("stampsim %s: exit %d, stdout %q, stderr %q; want exit 2, no stdout and %q",
				c.args, code, stdout.Bytes(), stderr.Bytes(), c.stderr)
		}
	}
}

// TestHelpListsDefaults: -h exits 0 and prints each app's defaults as
// Normalize fills them in.
func TestHelpListsDefaults(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h exited %d", code)
	}
	want := `{"kind":"app","app":"bank","machine":"niagara","n":16,"procs":8,"seed":1,"manager":"timestamp"}`
	if !strings.Contains(stderr.String(), want) {
		t.Errorf("-h output lacks the bank defaults %s:\n%s", want, stderr.Bytes())
	}
}
