package main

import (
	"strings"
	"testing"
)

func TestGateKernels(t *testing.T) {
	base := []kernelResult{
		{Kernel: "MulAB", N: 128, NsPar1: 1000},
		{Kernel: "MulAB", N: 256, NsPar1: 1000},
		{Kernel: "VecDot", N: 512, NsPar1: 1000, AllocsPerOp: 1},
	}
	cases := []struct {
		name         string
		cand         kernelResult
		wantFailures int
		wantOut      string
	}{
		{"1.06x at n>=256 fails", kernelResult{Kernel: "MulAB", N: 256, NsPar1: 1060}, 1, "FAIL MulAB"},
		{"1.05x at n>=256 passes", kernelResult{Kernel: "MulAB", N: 256, NsPar1: 1050}, 0, "ok   MulAB"},
		{"1.06x at n<256 passes", kernelResult{Kernel: "MulAB", N: 128, NsPar1: 1060}, 0, ""},
		{"new allocation fails", kernelResult{Kernel: "MulAB", N: 128, NsPar1: 1000, AllocsPerOp: 1}, 1, "allocs/op, want 0"},
		{"recorded VecDot allocation passes", kernelResult{Kernel: "VecDot", N: 512, NsPar1: 1000, AllocsPerOp: 1}, 0, "ok   VecDot"},
		{"0.4 allocs count as 0", kernelResult{Kernel: "MulAB", N: 256, NsPar1: 1000, AllocsPerOp: 0.4}, 0, "ok   MulAB"},
		{"kernel missing from baseline is noted", kernelResult{Kernel: "SymMV", N: 512, NsPar1: 9e9}, 0, "note SymMV"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			got := gateKernels(&out, base, []kernelResult{tc.cand})
			if got != tc.wantFailures {
				t.Errorf("failures = %d, want %d; output:\n%s", got, tc.wantFailures, out.String())
			}
			if !strings.Contains(out.String(), tc.wantOut) {
				t.Errorf("output missing %q:\n%s", tc.wantOut, out.String())
			}
		})
	}
}

func TestGateRefusesOtherMachine(t *testing.T) {
	base := benchMeta{GoVersion: "go1.24.0", GOMAXPROCS: 1, NumCPU: 1}
	if err := sameMachine(base, base); err != nil {
		t.Fatalf("same meta refused: %v", err)
	}
	cases := []struct {
		name  string
		fresh benchMeta
		want  string
	}{
		{"num_cpu differs", benchMeta{GOMAXPROCS: 1, NumCPU: 2}, "num_cpu 1 / gomaxprocs 1, this run at num_cpu 2 / gomaxprocs 1"},
		{"gomaxprocs differs", benchMeta{GOMAXPROCS: 2, NumCPU: 1}, "num_cpu 1 / gomaxprocs 1, this run at num_cpu 1 / gomaxprocs 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := sameMachine(base, tc.fresh)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}
