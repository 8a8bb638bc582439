// Package model builds the compact, deterministic versions of the paper's
// evaluation networks (Table IV): Inception, ResNet50, MobileNet, Yolo,
// Transformer, and an LSTM RNN. Each "-lite" model keeps the defining
// topology of its namesake — inception branch-and-concat modules, residual
// blocks, depthwise-separable convolutions, a dense detection head,
// attention blocks, recurrent gates — at a size that makes million-sample
// fault-injection campaigns tractable. Weights are seeded (not trained);
// see DESIGN.md substitution 4 for why this preserves fault-propagation
// behaviour.
package model

import (
	"fmt"
	"math"
	"math/rand"

	"fidelity/internal/dataset"
	"fidelity/internal/faultmodel"
	"fidelity/internal/nn"
	"fidelity/internal/numerics"
)

// MetricKind selects the correctness metric (Table IV).
type MetricKind int

const (
	// MetricTop1 is Top-1 label match.
	MetricTop1 MetricKind = iota
	// MetricBLEU is BLEU-score difference within tolerance.
	MetricBLEU
	// MetricDetection is detection-precision difference within tolerance.
	MetricDetection
)

// String names the metric.
func (m MetricKind) String() string {
	switch m {
	case MetricTop1:
		return "top1"
	case MetricBLEU:
		return "bleu"
	case MetricDetection:
		return "detection"
	default:
		return fmt.Sprintf("MetricKind(%d)", int(m))
	}
}

// Workload pairs a network with its dataset and correctness metric.
type Workload struct {
	Net     *nn.Network
	Dataset dataset.Name
	Metric  MetricKind
	// Yolo decoding geometry (MetricDetection only).
	Grid, Anchors, Classes int
}

// Names lists the supported model names. "resnet-bounded" is the ResNet
// topology with value-bounding clamps after every block — the Key Result 5
// co-design mitigation proposed in the paper's Architectural Insights.
func Names() []string {
	return []string{"inception", "resnet", "resnet-bounded", "mobilenet", "yolo", "transformer", "rnn"}
}

// StudySeed is the weight seed of every study-scale workload: the library's
// Analyze/NaiveBaseline, the hardening pipeline, the CLI and the distributed
// coordinator all build their networks with it, so a result measured through
// one entry point is comparable with — and a checkpoint resumable by — any
// other.
const StudySeed = 42

// Build constructs a workload by name at the given precision with a
// deterministic seed. The quantizer calibration range is fixed at 8, chosen
// so the seeded networks' activations occupy most of the INT range.
func Build(name string, prec numerics.Precision, seed int64) (*Workload, error) {
	codec, err := numerics.NewCodec(prec, 8)
	if err != nil {
		return nil, err
	}
	rng := rand.New(faultmodel.NewStreamSource(seed))
	switch name {
	case "inception":
		return inceptionLite(codec, rng), nil
	case "resnet":
		return resnetLite(codec, rng, 0), nil
	case "resnet-bounded":
		// Bound chosen from the fault-free activation profile of the seeded
		// network (max |activation| ≈ 6): generous for clean values, tight
		// for exponent-flip outliers.
		return resnetLite(codec, rng, 8), nil
	case "mobilenet":
		return mobilenetLite(codec, rng), nil
	case "yolo":
		return yoloLite(codec, rng), nil
	case "transformer":
		return transformerLite(codec, rng), nil
	case "rnn":
		return rnnLite(codec, rng), nil
	default:
		return nil, fmt.Errorf("model: unknown model %q (have %v)", name, Names())
	}
}

// stddev gives fan-in scaled initialization so activations keep unit-order
// variance through depth (essential for quantized precisions).
func stddev(fanIn int) float32 {
	if fanIn <= 0 {
		fanIn = 1
	}
	return float32(1.2 / math.Sqrt(float64(fanIn)))
}

// convBNReLU is the standard conv → folded-BN → ReLU stack.
func convBNReLU(name string, rng *rand.Rand, kh, inC, outC, stride, pad int, codec numerics.Codec) nn.Layer {
	conv := nn.NewConv2D(name, kh, kh, inC, outC, stride, pad, codec).InitRandom(rng, stddev(kh*kh*inC))
	bn := nn.NewBatchNorm(name+"/bn", outC, codec).InitRandom(rng)
	return nn.NewSequential(name+"/block", conv, bn, nn.NewReLU(name+"/relu", codec))
}

// inceptionLite: stem conv, two inception modules (1×1, 3×3, 5×5, pooled-1×1
// branches), global pooling and a classifier — the Inception topology on
// 32×32×3 "imagenet-like" inputs, 10 classes.
func inceptionLite(codec numerics.Codec, rng *rand.Rand) *Workload {
	module := func(name string, inC int) nn.Layer {
		return nn.NewBranches(name, 3,
			convBNReLU(name+"/b1x1", rng, 1, inC, 8, 1, 0, codec),
			nn.NewSequential(name+"/b3x3",
				convBNReLU(name+"/b3x3r", rng, 1, inC, 8, 1, 0, codec),
				convBNReLU(name+"/b3x3c", rng, 3, 8, 12, 1, 1, codec),
			),
			nn.NewSequential(name+"/b5x5",
				convBNReLU(name+"/b5x5r", rng, 1, inC, 4, 1, 0, codec),
				convBNReLU(name+"/b5x5c", rng, 5, 4, 8, 1, 2, codec),
			),
			nn.NewSequential(name+"/bpool",
				nn.NewZeroPad(name+"/pad", 1),
				nn.NewMaxPool(name+"/pool", 3, 1),
				convBNReLU(name+"/poolproj", rng, 1, inC, 4, 1, 0, codec),
			),
		)
	}
	// Module output channels: 8+12+8+4 = 32.
	root := nn.NewSequential("inception",
		convBNReLU("stem", rng, 3, 3, 16, 2, 1, codec), // 32→16
		module("inc1", 16),
		nn.NewMaxPool("pool1", 2, 2), // 16→8... pool of branches output
		module("inc2", 32),
		nn.NewGlobalAvgPool("gap", codec),
		nn.NewDense("fc", 32, 10, codec).InitRandom(rng, stddev(32)),
		nn.NewSoftmax("softmax"),
	)
	return &Workload{
		Net:     nn.NewNetwork("inception-lite", root, codec),
		Dataset: dataset.ImagenetLike,
		Metric:  MetricTop1,
	}
}

// resnetLite: stem + three residual stages with projection shortcuts — the
// ResNet50 topology in miniature. A positive bound inserts value-bounding
// clamps after every stage (the Key Result 5 mitigation).
func resnetLite(codec numerics.Codec, rng *rand.Rand, bound float32) *Workload {
	guard := func(name string, l nn.Layer) nn.Layer {
		if bound <= 0 {
			return l
		}
		return nn.NewSequential(name+"/guarded", l, nn.NewClamp(name+"/clamp", bound, codec))
	}
	block := func(name string, inC, outC, stride int) nn.Layer {
		body := nn.NewSequential(name+"/body",
			convBNReLU(name+"/c1", rng, 3, inC, outC, stride, 1, codec),
			nn.NewConv2D(name+"/c2", 3, 3, outC, outC, 1, 1, codec).InitRandom(rng, stddev(9*outC)),
			nn.NewBatchNorm(name+"/bn2", outC, codec).InitRandom(rng),
		)
		var shortcut nn.Layer
		if inC != outC || stride != 1 {
			shortcut = nn.NewConv2D(name+"/proj", 1, 1, inC, outC, stride, 0, codec).InitRandom(rng, stddev(inC))
		}
		return nn.NewSequential(name,
			nn.NewResidual(name+"/res", body, shortcut, codec),
			nn.NewReLU(name+"/relu", codec),
		)
	}
	name := "resnet-lite"
	if bound > 0 {
		name = "resnet-lite-bounded"
	}
	root := nn.NewSequential(name,
		guard("stem", convBNReLU("stem", rng, 3, 3, 16, 1, 1, codec)),
		guard("res1", block("res1", 16, 16, 1)),
		guard("res2", block("res2", 16, 32, 2)),
		guard("res3", block("res3", 32, 32, 1)),
		nn.NewGlobalAvgPool("gap", codec),
		nn.NewDense("fc", 32, 10, codec).InitRandom(rng, stddev(32)),
		nn.NewSoftmax("softmax"),
	)
	return &Workload{
		Net:     nn.NewNetwork(name, root, codec),
		Dataset: dataset.Cifar10Like,
		Metric:  MetricTop1,
	}
}

// mobilenetLite: depthwise-separable convolution stacks with ReLU6.
func mobilenetLite(codec numerics.Codec, rng *rand.Rand) *Workload {
	dwsep := func(name string, inC, outC, stride int) nn.Layer {
		return nn.NewSequential(name,
			nn.NewDepthwiseConv2D(name+"/dw", 3, 3, inC, stride, 1, codec).InitRandom(rng, stddev(9)),
			nn.NewBatchNorm(name+"/bn1", inC, codec).InitRandom(rng),
			nn.NewRelu6(name+"/r1", codec),
			nn.NewConv2D(name+"/pw", 1, 1, inC, outC, 1, 0, codec).InitRandom(rng, stddev(inC)),
			nn.NewBatchNorm(name+"/bn2", outC, codec).InitRandom(rng),
			nn.NewRelu6(name+"/r2", codec),
		)
	}
	root := nn.NewSequential("mobilenet",
		convBNReLU("stem", rng, 3, 3, 8, 2, 1, codec), // 16→8 on cifar-like
		dwsep("ds1", 8, 16, 1),
		dwsep("ds2", 16, 32, 2),
		dwsep("ds3", 32, 32, 1),
		nn.NewGlobalAvgPool("gap", codec),
		nn.NewDense("fc", 32, 10, codec).InitRandom(rng, stddev(32)),
		nn.NewSoftmax("softmax"),
	)
	return &Workload{
		Net:     nn.NewNetwork("mobilenet-lite", root, codec),
		Dataset: dataset.Cifar10Like,
		Metric:  MetricTop1,
	}
}

// yoloLite: a leaky-ReLU backbone with residual blocks and a dense
// detection head producing (grid × grid × anchors·(5+classes)) — the
// single-shot detector topology of Yolo on 48×48×3 "coco-like" scenes.
func yoloLite(codec numerics.Codec, rng *rand.Rand) *Workload {
	const grid, anchors, classes = 6, 2, 4
	convLeaky := func(name string, kh, inC, outC, stride, pad int) nn.Layer {
		return nn.NewSequential(name,
			nn.NewConv2D(name+"/c", kh, kh, inC, outC, stride, pad, codec).InitRandom(rng, stddev(kh*kh*inC)),
			nn.NewBatchNorm(name+"/bn", outC, codec).InitRandom(rng),
			nn.NewLeakyReLU(name+"/lrelu", 0.1, codec),
		)
	}
	resBlock := func(name string, c int) nn.Layer {
		body := nn.NewSequential(name+"/body",
			convLeaky(name+"/c1", 1, c, c/2, 1, 0),
			convLeaky(name+"/c2", 3, c/2, c, 1, 1),
		)
		return nn.NewResidual(name, body, nil, codec)
	}
	head := nn.NewConv2D("head", 1, 1, 32, anchors*(5+classes), 1, 0, codec).InitRandom(rng, stddev(32))
	root := nn.NewSequential("yolo",
		convLeaky("stem", 3, 3, 16, 2, 1),   // 48→24
		convLeaky("down1", 3, 16, 32, 2, 1), // 24→12
		resBlock("res1", 32),
		convLeaky("down2", 3, 32, 32, 2, 1), // 12→6
		resBlock("res2", 32),
		head,
	)
	return &Workload{
		Net:     nn.NewNetwork("yolo-lite", root, codec),
		Dataset: dataset.COCOLike,
		Metric:  MetricDetection,
		Grid:    grid, Anchors: anchors, Classes: classes,
	}
}

// transformerLite: embedding → two encoder blocks (multi-head attention +
// feed-forward, residual + layer norm) → vocabulary projection; greedy
// per-position decoding gives the "translation" for BLEU scoring.
func transformerLite(codec numerics.Codec, rng *rand.Rand) *Workload {
	const vocab, dModel, heads, dff = 64, 32, 4, 64
	encoder := func(name string) nn.Layer {
		attn := nn.NewMultiHeadAttention(name+"/mha", dModel, heads, codec).InitRandom(rng, stddev(dModel))
		ffn := nn.NewFeedForward(name+"/ffn", dModel, dff, codec)
		ffn.InitRandom(rng, stddev(dModel))
		return nn.NewSequential(name,
			nn.NewResidual(name+"/res1", attn, nil, codec),
			nn.NewLayerNorm(name+"/ln1", dModel),
			nn.NewResidual(name+"/res2", ffn, nil, codec),
			nn.NewLayerNorm(name+"/ln2", dModel),
		)
	}
	root := nn.NewSequential("transformer",
		nn.NewEmbedding("embed", vocab, dModel).InitRandom(rng, 0.5),
		encoder("enc1"),
		encoder("enc2"),
		nn.NewDense("vocab", dModel, vocab, codec).InitRandom(rng, stddev(dModel)),
	)
	return &Workload{
		Net:     nn.NewNetwork("transformer-lite", root, codec),
		Dataset: dataset.IWSLTLike,
		Metric:  MetricBLEU,
	}
}

// rnnLite: an LSTM over HAR-like time series with a classifier head — the
// paper's RNN validation workload ("a FC layer in LSTM").
func rnnLite(codec numerics.Codec, rng *rand.Rand) *Workload {
	root := nn.NewSequential("rnn",
		nn.NewLSTM("lstm", 6, 24, codec).InitRandom(rng, stddev(30)),
		nn.NewDense("fc", 24, 6, codec).InitRandom(rng, stddev(24)),
		nn.NewSoftmax("softmax"),
	)
	return &Workload{
		Net:     nn.NewNetwork("rnn-lite", root, codec),
		Dataset: dataset.HARLike,
		Metric:  MetricTop1,
	}
}
