// Package benchfile owns the on-disk format of the committed benchmark
// baseline BENCH_psdp.json: one JSON object whose top-level keys are
// independent sections, each refreshed by the command that measures it.
// Merge is the only code that writes the file, so a rerun of one
// section can never drop or reformat another.
package benchfile

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// Merge replaces the given top-level keys of the JSON object at path
// and writes the object back with two-space indentation and sorted
// keys, leaving the value of every other key byte-identical. A missing
// file is created. A file that exists but does not hold a JSON object
// (malformed, truncated, an array, null) is refused and left unchanged,
// as is one that cannot be read.
func Merge(path string, sections map[string]any) error {
	var doc map[string]json.RawMessage
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("benchfile: %s is not a JSON object: %w", path, err)
		}
		if doc == nil {
			return fmt.Errorf("benchfile: %s is not a JSON object: null", path)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("benchfile: %w", err)
	}

	out := make(map[string]any, len(doc)+len(sections))
	for k, v := range doc {
		out[k] = v
	}
	for k, v := range sections {
		out[k] = v
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	// Raw values are re-emitted as read; HTML escaping would rewrite any
	// '<', '>' or '&' in a key this call does not own.
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("benchfile: encoding %s: %w", path, err)
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
