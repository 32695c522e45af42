package stream

// Crash recovery. Resume rebuilds a stream from its checkpoint directory:
// the manifest (validated by CRC + end magic) is the single source of
// truth, epoch files it never committed are torn writes to roll back, and
// epoch files it DID commit must decode cleanly or the whole directory is
// reported corrupt — recovery never silently merges damaged state.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cacheagg/internal/agg"
	"cacheagg/internal/runs"
	"cacheagg/internal/trace"
)

// Resume reopens the durable stream in opts.Dir after a crash or a clean
// Close, validates every sealed epoch, rolls back torn (un-manifested)
// epoch files, and returns an Aggregator continuing from the last sealed
// epoch. opts.Specs may be nil to adopt the manifest's recorded specs;
// when non-nil they must match exactly (ErrSpecMismatch otherwise).
//
// Failure modes: ErrNoCheckpoint (no manifest — the directory never
// committed anything), ErrFinished (the stream was Finished; its result
// is final), ErrCorruptCheckpoint (damaged manifest, or a committed epoch
// file that is missing, truncated, checksum-broken or disagrees with the
// manifest's record count).
func Resume(opts Options) (*Aggregator, error) {
	opts = opts.withDefaults()
	if opts.Specs != nil {
		if err := validateSpecs(opts.Specs); err != nil {
			return nil, err
		}
	}
	a, err := newAggregator(opts)
	if err != nil {
		return nil, err
	}
	manPath := filepath.Join(a.dir, manifestName)
	raw, err := readAll(a, manPath)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %s has no manifest", ErrNoCheckpoint, a.dir)
		}
		return nil, fmt.Errorf("stream: read manifest: %w", err)
	}
	man, err := decodeManifest(raw)
	if err != nil {
		return nil, err
	}
	if man.Finished {
		return nil, fmt.Errorf("%w: stream in %s was finished", ErrFinished, a.dir)
	}
	if opts.Specs != nil && !specsEqual(opts.Specs, man.Specs) {
		return nil, fmt.Errorf("%w: resume asked for %v, checkpoint holds %v",
			ErrSpecMismatch, opts.Specs, man.Specs)
	}
	a.specs = man.Specs
	a.layout = agg.NewLayout(man.Specs)
	a.man = man
	if n := len(man.Epochs); n > 0 {
		a.epoch = man.Epochs[n-1].Seq
	}

	committed := make(map[uint64]bool, len(man.Epochs))
	for _, e := range man.Epochs {
		committed[e.Seq] = true
	}

	// Sweep the directory: delete torn epoch files (written but never
	// committed by a manifest rename) and the stale MANIFEST.tmp a crash
	// mid-commit leaves behind. Directory listing goes through the real
	// filesystem — faultfs does not model ReadDir, and a failed listing
	// would fail Resume anyway.
	entries, err := os.ReadDir(a.dir)
	if err != nil {
		return nil, fmt.Errorf("stream: scan checkpoint dir: %w", err)
	}
	var torn int64
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case name == manifestName+".tmp":
			if err := a.fs.Remove(filepath.Join(a.dir, name)); err != nil {
				return nil, fmt.Errorf("stream: remove stale manifest temp: %w", err)
			}
		case strings.HasPrefix(name, "epoch-") && strings.HasSuffix(name, ".ckpt"):
			var seq uint64
			if _, err := fmt.Sscanf(name, "epoch-%d.ckpt", &seq); err != nil || committed[seq] {
				continue
			}
			if err := a.fs.Remove(filepath.Join(a.dir, name)); err != nil {
				return nil, fmt.Errorf("stream: roll back torn epoch %s: %w", name, err)
			}
			torn++
		}
	}
	// A snapshot spill temp dir left by a crashed merge of an earlier
	// version, which spilled snapshots to disk; this one never writes it.
	if err := os.RemoveAll(filepath.Join(a.dir, snapshotTmpDir)); err != nil {
		return nil, fmt.Errorf("stream: clear snapshot temp dir: %w", err)
	}

	// Validate every committed epoch eagerly: a Resume that succeeds
	// promises every later Snapshot can read its history.
	width := a.layout.Words
	for _, e := range man.Epochs {
		path := filepath.Join(a.dir, epochFileName(e.Seq))
		keys, _, err := runs.ReadBlockFile(a.fs, path, "checkpoint", width)
		if err != nil {
			return nil, fmt.Errorf("%w: epoch %d: %w", ErrCorruptCheckpoint, e.Seq, err)
		}
		if uint64(len(keys)) != e.Records {
			return nil, fmt.Errorf("%w: epoch %d holds %d records, manifest says %d",
				ErrCorruptCheckpoint, e.Seq, len(keys), e.Records)
		}
	}

	if a.tr != nil {
		a.tr.Emit(trace.KindRecover, 0, 0, int64(len(man.Epochs)), float64(man.RowsDurable))
	}
	a.statMu.Lock()
	a.stats.RecoveredEpochs = int64(len(man.Epochs))
	a.stats.RecoveredRows = int64(man.RowsDurable)
	a.stats.TornEpochsRolledBack = torn
	a.statMu.Unlock()
	a.start()
	return a, nil
}

// readAll reads a whole file through the (fault-injected, retrying)
// filesystem stack.
func readAll(a *Aggregator, path string) ([]byte, error) {
	f, err := a.fs.Open(path)
	if err != nil {
		return nil, err
	}
	var out []byte
	buf := make([]byte, 32<<10)
	for {
		n, err := f.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return nil, err
		}
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return out, nil
}

func specsEqual(a, b []agg.Spec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Drain is a convenience for servers shutting down: seal whatever is
// buffered so nothing is lost, honoring ctx, then Close. The stream's
// durable state afterwards is exactly its last sealed epoch, and Resume
// picks up from there.
func (a *Aggregator) Drain(ctx context.Context) error {
	_, err := a.Checkpoint(ctx)
	cerr := a.Close()
	if err != nil && !errors.Is(err, ErrClosed) {
		return err
	}
	return cerr
}
