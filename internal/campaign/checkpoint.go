package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
)

// Checkpoint records how much of a sweep's output is committed. Written
// counts whole records; Offset is the output file's byte length at that
// point. A resume truncates the output to Offset — discarding any partial
// record from the kill — and continues at point Written, which is what
// makes the concatenation byte-identical to an uninterrupted run.
type Checkpoint struct {
	SpecHash uint64 `json:"spec_hash"`
	Written  int    `json:"written"`
	Offset   int64  `json:"offset"`
}

// CheckpointPath is the sidecar path for an output file.
func CheckpointPath(outPath string) string { return outPath + ".ckpt" }

// ReadCheckpoint loads a checkpoint sidecar; ok is false when none exists.
func ReadCheckpoint(path string) (ck Checkpoint, ok bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return Checkpoint{}, false, nil
	}
	if err != nil {
		return Checkpoint{}, false, err
	}
	if err := json.Unmarshal(data, &ck); err != nil {
		return Checkpoint{}, false, fmt.Errorf("corrupt checkpoint %s: %w", path, err)
	}
	if ck.Written < 0 || ck.Offset < 0 {
		return Checkpoint{}, false, fmt.Errorf("corrupt checkpoint %s: %d records at offset %d", path, ck.Written, ck.Offset)
	}
	return ck, true, nil
}

// countRecords checks that the first n bytes of f hold exactly want
// newline-terminated records: the committed prefix a checkpoint claims.
func countRecords(f *os.File, n int64, want int) error {
	buf := make([]byte, 64<<10)
	got, last := 0, byte('\n')
	for off := int64(0); off < n; {
		k := int(min(int64(len(buf)), n-off))
		if _, err := f.ReadAt(buf[:k], off); err != nil {
			return err
		}
		got += bytes.Count(buf[:k], []byte{'\n'})
		last = buf[k-1]
		off += int64(k)
	}
	switch {
	case last != '\n':
		return fmt.Errorf("the first %d bytes end mid-record", n)
	case got != want:
		return fmt.Errorf("the first %d bytes hold %d records, not %d", n, got, want)
	}
	return nil
}

// writeCheckpoint commits a checkpoint atomically (write temp, rename), so
// a kill during checkpointing leaves either the old or the new sidecar,
// never a torn one.
func writeCheckpoint(path string, ck Checkpoint) error {
	data, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
