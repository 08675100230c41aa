package benchfile

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// canonical is a file in the layout Merge writes, holding keys no
// caller below owns; the odd number spellings and the '<' survive only
// if Merge re-emits raw bytes instead of decoded values.
const canonical = `{
  "cluster": {
    "speedup_2_vs_1": 1.90
  },
  "kernels": [
    {
      "kernel": "VecDot",
      "ns": 1.5e+03
    }
  ],
  "serve.delta": {
    "iter_ratio": 0.450,
    "note": "<warm>"
  }
}
`

func TestMerge(t *testing.T) {
	cases := []struct {
		name     string
		existing *string // nil: no file on disk
		merges   []map[string]any
		wantErr  bool
		want     map[string]string // key -> compact JSON value
	}{
		{
			name:     "unknown keys kept byte-identical",
			existing: ptr(canonical),
			merges:   []map[string]any{{"kernels": []int{1, 2}}},
			want:     map[string]string{"kernels": `[1,2]`},
		},
		{
			name:     "non-object refused",
			existing: ptr(`[{"kernels": 1}]`),
			merges:   []map[string]any{{"engines": 1}},
			wantErr:  true,
		},
		{
			name:     "null refused",
			existing: ptr("null\n"),
			merges:   []map[string]any{{"engines": 1}},
			wantErr:  true,
		},
		{
			name:     "truncated refused",
			existing: ptr(canonical[:len(canonical)/2]),
			merges:   []map[string]any{{"engines": 1}},
			wantErr:  true,
		},
		{
			name:   "missing file created",
			merges: []map[string]any{{"mixed": map[string]float64{"eps": 0.1}}},
			want:   map[string]string{"mixed": `{"eps":0.1}`},
		},
		{
			name:     "successive merges both survive",
			existing: ptr(canonical),
			merges: []map[string]any{
				{"engines": map[string]float64{"tight_eps": 0.05}},
				{"mixed": map[string]float64{"eps": 0.1}, "meta": "m"},
			},
			want: map[string]string{
				"engines": `{"tight_eps":0.05}`,
				"mixed":   `{"eps":0.1}`,
				"meta":    `"m"`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "BENCH_psdp.json")
			var before map[string]json.RawMessage
			if tc.existing != nil {
				if err := os.WriteFile(path, []byte(*tc.existing), 0o644); err != nil {
					t.Fatal(err)
				}
				_ = json.Unmarshal([]byte(*tc.existing), &before)
			}
			for _, sections := range tc.merges {
				err := Merge(path, sections)
				if tc.wantErr {
					if err == nil {
						t.Fatal("Merge accepted a file that is not a JSON object")
					}
					got, rerr := os.ReadFile(path)
					if rerr != nil || string(got) != *tc.existing {
						t.Fatalf("refused file was changed on disk: %q", got)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var after map[string]json.RawMessage
			if err := json.Unmarshal(data, &after); err != nil {
				t.Fatalf("merged file is not a JSON object: %v\n%s", err, data)
			}
			for k, want := range tc.want {
				var got bytes.Buffer
				if err := json.Compact(&got, after[k]); err != nil || got.String() != want {
					t.Errorf("key %q = %s, want %s", k, after[k], want)
				}
			}
			for k, old := range before {
				if _, owned := tc.want[k]; owned {
					continue
				}
				if !bytes.Equal(after[k], old) {
					t.Errorf("key %q changed:\n got %s\nwant %s", k, after[k], old)
				}
			}
			if want := len(before) + countNew(tc.want, before); len(after) != want {
				t.Errorf("merged file has %d keys, want %d", len(after), want)
			}
		})
	}
}

// A file already in Merge's layout is rewritten byte-for-byte when no
// section changes, so reruns of one section leave a clean diff.
func TestMergeIsIdempotentOnCanonicalFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_psdp.json")
	if err := os.WriteFile(path, []byte(canonical), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Merge(path, nil); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != canonical {
		t.Fatalf("rewrite changed the file:\n%s", got)
	}
}

func ptr(s string) *string { return &s }

func countNew(want map[string]string, before map[string]json.RawMessage) int {
	n := 0
	for k := range want {
		if _, ok := before[k]; !ok {
			n++
		}
	}
	return n
}

// A path that exists but cannot be read as a file is an error, not an
// empty document to overwrite.
func TestMergeRefusesUnreadablePath(t *testing.T) {
	if err := Merge(t.TempDir(), map[string]any{"engines": 1}); err == nil {
		t.Fatal("Merge accepted a directory as the bench file")
	}
}
