// Distributed training with compressed links: the setting TernGrad (one
// of Table I's comparison methods) was designed for, now with APT running
// on the parameter server. Two concurrent data-parallel workers train
// through the server; the first table compares gradient codecs on the
// worker→server uplink (fp32, DoReFa-style 8-bit, TernGrad's ternary),
// and the second compares the server→worker downlink with fp32 weight
// broadcast against the bitwidth-aware broadcast, where weights ship
// bit-packed at each layer's current APT bitwidth.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/models"
)

func main() {
	trainSet, testSet, err := data.NewSynth(data.SynthConfig{
		Classes: 4, Train: 512, Test: 256, Size: 16, Seed: 51, Noise: 0.5,
	})
	if err != nil {
		log.Fatal(err)
	}
	build := func() (*models.Model, error) {
		return models.SmallCNN(models.Config{Classes: 4, InputSize: 16, Seed: 9})
	}
	base := dist.Config{
		Workers: 2, Build: build, Train: trainSet, Test: testSet,
		BatchSize: 32, Epochs: 6, LR: 0.05, Momentum: 0.9,
		Seed: 3,
	}

	codecs := []dist.GradCodec{
		dist.FP32Codec{},
		dist.KBitCodec{Bits: 8},
		dist.NewTernaryCodec(99),
	}
	fmt.Println("uplink codecs (fp32 weight broadcast):")
	fmt.Println("codec     accuracy   uplink        downlink      rounds")
	for _, codec := range codecs {
		cfg := base
		cfg.Codec = codec
		stats, err := dist.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %6.1f%%    %-13s %-13s %d\n",
			codec.Name(), 100*stats.FinalAcc(),
			fmtBytes(stats.UpBytes), fmtBytes(stats.DownBytes), stats.Rounds)
	}
	fmt.Println("\nternary gradients cut the up-link ~16x (2 bits + scale vs 32 bits/element).")

	fmt.Println("\nweight broadcast (8-bit uplink, APT on the server):")
	fmt.Println("broadcast       accuracy   downlink      mean bits")
	for _, quantBcast := range []bool{false, true} {
		aptCfg := core.DefaultConfig()
		aptCfg.Interval = 1 // observe every parameter-server round
		cfg := base
		cfg.Codec = dist.KBitCodec{Bits: 8}
		cfg.APT = &aptCfg
		cfg.QuantBroadcast = quantBcast
		stats, err := dist.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		name := "fp32"
		if quantBcast {
			name = "APT bit-packed"
		}
		fmt.Printf("%-15s %6.1f%%    %-13s %.2f\n",
			name, 100*stats.FinalAcc(), fmtBytes(stats.DownBytes), stats.MeanBits)
	}
	fmt.Println("\nwith the bitwidth-aware broadcast the downlink shrinks with APT's")
	fmt.Println("precision state: layers at 6 bits ship 6-bit weights, not fp32.")
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
