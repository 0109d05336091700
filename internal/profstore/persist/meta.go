package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

const (
	metaName    = "STORE.json"
	metaVersion = 1
)

// StoreMeta is the layout descriptor at the root of a sharded data
// directory. Its atomic write is the commit point of every layout
// migration: recovery trusts only the shard directories it names
// (shard-0 … shard-<Shards-1>) and treats everything else — legacy
// single-store files, shard directories beyond the count — as migration
// leftovers to be cleaned, never as data.
type StoreMeta struct {
	Version int `json:"version"`
	// Shards is the shard count the directory was last committed with.
	Shards int `json:"shards"`
	// Pending, when non-empty, names the staging subdirectory holding the
	// already-committed new layout mid-swap: a migration writes the full
	// new layout into staging first, then flips authority to it by
	// writing this field, then swaps the staged shard directories into
	// place and clears it. A boot that finds Pending set resumes the swap
	// (it is idempotent: a staged directory still present has not been
	// swapped yet; an absent one has).
	Pending string `json:"pending,omitempty"`
}

// ReadStoreMeta loads the layout descriptor from dataDir. It returns
// (nil, nil) when none exists — a fresh directory or a legacy
// single-store layout.
func ReadStoreMeta(dataDir string) (*StoreMeta, error) {
	b, err := os.ReadFile(filepath.Join(dataDir, metaName))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var m StoreMeta
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("persist: bad %s: %w", metaName, err)
	}
	if m.Version != metaVersion {
		return nil, fmt.Errorf("persist: unsupported %s version %d", metaName, m.Version)
	}
	if m.Shards <= 0 {
		return nil, fmt.Errorf("persist: %s names %d shards", metaName, m.Shards)
	}
	return &m, nil
}

// WriteStoreMeta atomically publishes the layout descriptor (temp file +
// rename + directory fsync). Once this returns, a crash at any later point
// of a migration leaves the directory recoverable under the new layout.
func WriteStoreMeta(dataDir string, m StoreMeta) error {
	m.Version = metaVersion
	b, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(dataDir, metaName), append(b, '\n'))
}

// LegacyLayoutPresent reports whether dataDir holds single-store (pre-shard)
// persistence artifacts: a root-level WAL directory or snapshot pointer.
func LegacyLayoutPresent(dataDir string) bool {
	if st, err := os.Stat(filepath.Join(dataDir, walDirName)); err == nil && st.IsDir() {
		return true
	}
	_, err := os.Stat(filepath.Join(dataDir, currentName))
	return err == nil
}
