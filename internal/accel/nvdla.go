package accel

// NVDLASmall returns the NVDLA-like configuration used throughout the paper's
// case study: the Fig 2(a) datapath with k = 4 (k² = 16 parallel MAC groups,
// each computing one output channel per cycle) and t = 16 (a weight value is
// held and reused for 16 consecutive MAC operations).
//
// The census fractions are the paper's Table II "%FF" column. The sub-
// fractions (decompression share, FP-only share, INT-only share) are the
// kind of estimate the paper obtains from block diagrams; they can be varied
// for sensitivity analysis.
//
// NumFFs is an estimate of the sequential-element count of the NVDLA
// configuration the paper studies, calibrated so that the reproduced
// Accelerator_FIT_rate magnitudes land in the paper's reported range — the
// paper's headline Yolo@10% FIT of ~9.5 pins it at ~830K FFs given our
// measured masking rates (the paper never states the absolute FF count, and
// Eq. 2 is linear in it; see EXPERIMENTS.md).
func NVDLASmall() *Config {
	return &Config{
		Name:               "nvdla-small",
		AtomicK:            16,
		AtomicC:            16,
		WeightHoldCycles:   16,
		NumFFs:             830_000,
		FetchBytesPerCycle: 32,
		CBUFBytes:          512 * 1024,
		Census: []FFGroup{
			{
				Cat:       Category{Class: Datapath, Var: VarInput, Pos: BeforeCBUF},
				Component: CompFetch,
				Frac:      0.025,
			},
			{
				Cat:            Category{Class: Datapath, Var: VarWeight, Pos: BeforeCBUF},
				Component:      CompFetch,
				Frac:           0.048,
				DecompressFrac: 0.30, // CDMA weight decompression unit
			},
			{
				Cat:         Category{Class: Datapath, Var: VarInput, Pos: CBUFToMAC},
				Component:   CompMAC,
				Frac:        0.162,
				FPOnlyFrac:  0.25,
				IntOnlyFrac: 0.10,
			},
			{
				Cat:         Category{Class: Datapath, Var: VarWeight, Pos: CBUFToMAC},
				Component:   CompMAC,
				Frac:        0.216,
				FPOnlyFrac:  0.25,
				IntOnlyFrac: 0.10,
			},
			{
				Cat:         Category{Class: Datapath, Var: VarOutput, Pos: InsideMAC},
				Component:   CompMAC,
				Frac:        0.379,
				FPOnlyFrac:  0.25,
				IntOnlyFrac: 0.10,
			},
			{
				Cat:       Category{Class: LocalControl},
				Component: CompMAC,
				Frac:      0.057,
			},
			{
				Cat:       Category{Class: GlobalControl},
				Component: CompConfig,
				Frac:      0.113,
			},
		},
	}
}
