package models

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
)

// Full-training-state checkpoints. A serving checkpoint (Save) captures
// only what inference needs; resuming a killed training run mid-epoch
// needs everything the trajectory depends on: the complete network state
// (weights, quant grids, fp32 masters, batch-norm statistics), the
// optimizer's momentum buffers, the APT controller's Gavg history, the
// data loader's shuffle position, and any auxiliary RNG streams
// (augmentation, stochastic gradient codecs). TrainState is that record;
// with it, `apttrain -resume` reproduces the uninterrupted run's weights
// bit-exactly in strict-barrier mode.
//
// The file format is a gob stream of TrainState followed by the same
// version/CRC trailer serving checkpoints use, written atomically — a
// checkpoint file either decodes completely and verifies, or is rejected
// with ErrCorruptCheckpoint. The trailer's version field counts writes,
// so an external watcher can tell successive snapshots apart cheaply.

// TrainStateFormat is the format version stamped into TrainState files;
// bump it when the layout changes incompatibly.
const TrainStateFormat = 1

// TrainState is a complete, resumable snapshot of a training run.
type TrainState struct {
	// Format is the TrainStateFormat the file was written with.
	Format int
	// Arch and Width identify the backbone (the Build registry name and
	// width multiplier), as in serving checkpoint headers.
	Arch  string
	Width float64
	// Seed is the run's master seed, recorded for sanity checking — a
	// resume under a different seed would silently diverge.
	Seed uint64

	// Epoch is the 0-based epoch in progress; Loader is the mid-epoch
	// position of the training loader.
	Epoch  int
	Loader data.Cursor

	// Net is the complete network state of the canonical (server) model.
	Net *nn.NetState
	// Replicas holds per-worker replica states for data-parallel runs
	// (batch-norm running statistics are worker-local, so the server copy
	// alone cannot reproduce them). Entry w belongs to worker slot w; a
	// nil entry (worker was mid-shard when the snapshot was taken, elastic
	// mode only) makes resume fall back to a clone of Net for that slot.
	// Resume rejects a snapshot whose entry count differs from the run's
	// worker count.
	Replicas []*nn.NetState
	// Opt is the optimizer snapshot (momentum buffers, hyperparameters).
	Opt *optim.SGDState
	// Ctrl is the APT controller snapshot; nil for runs without APT.
	Ctrl *core.ControllerState

	// RNGs are auxiliary RNG stream states (gradient codec, data
	// augmentation) in the order the trainer registered them.
	RNGs []uint64

	// Cumulative run statistics, restored so a resumed run's final
	// accounting matches the uninterrupted run's.
	Rounds    int
	UpBytes   int64
	DownBytes int64
	Accs      []float64
	// Publishes is how many serving checkpoints the run has published;
	// the next publish continues the version sequence.
	Publishes uint64
}

// SaveTrainState writes st to path atomically with a version/CRC trailer.
// The trailer version counts Rounds so successive snapshots are
// distinguishable without decoding.
func SaveTrainState(path string, st *TrainState) error {
	st.Format = TrainStateFormat
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return fmt.Errorf("models: encode train state: %w", err)
	}
	appendTrailer(&buf, uint64(st.Rounds))
	if err := writeFileAtomic(path, buf.Bytes()); err != nil {
		return fmt.Errorf("models: write %s: %w", path, err)
	}
	return nil
}

// LoadTrainState reads and verifies a TrainState written by
// SaveTrainState. A file with a mismatched CRC (torn or corrupt write)
// fails with ErrCorruptCheckpoint; a file without a trailer is rejected
// too — train-state checkpoints have always carried one, so its absence
// means the file is not a train-state checkpoint (or lost its tail).
func LoadTrainState(path string) (*TrainState, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, _, hasTrailer, err := splitTrailer(data)
	if err != nil {
		return nil, fmt.Errorf("models: load %s: %w", path, err)
	}
	if !hasTrailer {
		return nil, fmt.Errorf("models: load %s: not a train-state checkpoint (missing version/CRC trailer)", path)
	}
	var st TrainState
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st); err != nil {
		return nil, fmt.Errorf("models: decode train state %s: %w", path, err)
	}
	if st.Format != TrainStateFormat {
		return nil, fmt.Errorf("models: train state %s has format %d, this build reads %d", path, st.Format, TrainStateFormat)
	}
	return &st, nil
}
