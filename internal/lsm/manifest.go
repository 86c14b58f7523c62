package lsm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"pcplsm/internal/storage"
)

// The manifest is an append-only journal of version edits, one JSON-encoded
// VersionEdit per line. Replaying it reconstructs the table layout and the
// checkpoints after a restart. JSON keeps the format debuggable; manifest
// volume is tiny next to table data, so encoding efficiency is irrelevant.

const manifestName = "MANIFEST"

// manifest appends edits durably.
type manifest struct {
	mu sync.Mutex
	f  storage.File
	// failed is the first append error. Once set, every later append
	// returns it: the failed write may have left a partial line, and a
	// record appended after it would turn that torn tail into damage in
	// the middle of the journal, which replay rejects.
	failed error
}

// openManifest opens or creates the manifest file.
func openManifest(fs storage.FS) (*manifest, error) {
	var f storage.File
	ok, err := storage.Exists(fs, manifestName)
	if err != nil {
		return nil, fmt.Errorf("lsm: probing manifest: %w", err)
	}
	if ok {
		f, err = fs.Open(manifestName)
	} else {
		f, err = fs.Create(manifestName)
	}
	if err != nil {
		return nil, err
	}
	return &manifest{f: f}, nil
}

// append writes one edit and syncs. I/O failures are marked permanent and
// sticky: the write may have left a partial line that nothing can truncate
// away until the next recovery.
func (m *manifest) append(e *VersionEdit) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("lsm: encoding manifest record: %w", err)
	}
	data = append(data, '\n')
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed != nil {
		return m.failed
	}
	if _, err = m.f.Write(data); err == nil {
		err = m.f.Sync()
	}
	if err != nil {
		m.failed = markPermanent(err)
	}
	return m.failed
}

// rewriteManifest replaces the manifest with the single snapshot edit e
// via write-to-temporary, sync, and atomic rename. A crash before the
// rename leaves the old manifest (and the WALs it implies) fully intact; a
// crash after it finds the compacted snapshot.
func rewriteManifest(fs storage.FS, e *VersionEdit) error {
	data, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("lsm: encoding manifest snapshot: %w", err)
	}
	data = append(data, '\n')
	if err := storage.WriteFile(fs, manifestName, data); err != nil {
		return fmt.Errorf("lsm: rewriting manifest: %w", err)
	}
	return nil
}

func (m *manifest) close() error { return m.f.Close() }

// replayManifest decodes every edit in journal order. Blank lines are
// skipped. Only the last non-blank line may fail to decode: that is a torn
// append, and replay keeps everything before it, which was synced. A bad
// line with more records after it is damage in the middle of the journal
// and fails with ErrCorruption — dropping it would silently orphan the
// tables it and its successors reference.
func replayManifest(fs storage.FS) ([]*VersionEdit, error) {
	data, err := storage.ReadAll(fs, manifestName)
	if err != nil {
		return nil, err
	}
	var edits []*VersionEdit
	var torn error // decode failure of the last non-blank line so far
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if torn != nil {
			return nil, torn
		}
		e := new(VersionEdit)
		if err := json.Unmarshal(sc.Bytes(), e); err != nil {
			torn = fmt.Errorf("%w: manifest line %d is damaged and not the last: %v", ErrCorruption, line, err)
			continue
		}
		edits = append(edits, e)
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		return nil, err
	}
	return edits, nil
}
