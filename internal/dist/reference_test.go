package dist

import (
	"fmt"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/train"
)

// runReference is the test oracle for the engine: the workers run one
// after another against the server's own model, with no goroutines,
// replicas or broadcast syncs. Weights are identical across replicas
// between rounds, so its gradients match a true multi-process run; it
// shares the server core (beginRound/ingest/finishRound/finishEpoch/
// finalize) with the engine, so at Workers=1 the two must agree bit for
// bit. Batch-norm running statistics accumulate over every shard here,
// which is why the pin holds only at one worker. Checkpoint, publish,
// halt and resume are not modelled: no test compares them against it.
func runReference(cfg Config) (*Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	srv, err := newServer(cfg)
	if err != nil {
		return nil, err
	}
	rng := tensor.NewRNG(cfg.Seed ^ 0xD157)
	loader, err := data.NewLoader(cfg.Train, cfg.BatchSize, rng.Split())
	if err != nil {
		return nil, err
	}
	loss := nn.SoftmaxCrossEntropy{}
	stage := make([]*tensor.Tensor, len(srv.params))
	for i, p := range srv.params {
		stage[i] = tensor.New(p.Value.Shape()...)
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for exhausted := false; !exhausted; {
			srv.beginRound()
			shards := 0
			for w := 0; w < cfg.Workers; w++ {
				batch, labels, ok := loader.Next()
				if !ok {
					exhausted = true
					break
				}
				logits, err := srv.m.Net.Forward(batch, true)
				if err != nil {
					return nil, err
				}
				_, dlogits, err := loss.Forward(logits, labels)
				if err != nil {
					return nil, err
				}
				if _, err := srv.m.Net.Backward(dlogits); err != nil {
					return nil, err
				}
				for i, p := range srv.params {
					if err := stage[i].CopyFrom(p.Grad); err != nil {
						return nil, err
					}
					p.ZeroGrad()
				}
				if err := srv.ingest(stage); err != nil {
					return nil, err
				}
				shards++
			}
			if shards == 0 {
				break
			}
			if err := srv.finishRound(shards); err != nil {
				return nil, err
			}
		}
		if err := srv.finishEpoch(); err != nil {
			return nil, err
		}
		acc, err := train.Evaluate(srv.m, cfg.Test, cfg.BatchSize)
		if err != nil {
			return nil, fmt.Errorf("epoch %d eval: %w", epoch, err)
		}
		srv.st.Accs = append(srv.st.Accs, acc)
	}
	srv.finalize(srv.m)
	return srv.st, nil
}
