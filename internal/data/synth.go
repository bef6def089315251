package data

import (
	"math"
	"math/rand"

	"spatl/internal/tensor"
)

func pow(x, y float64) float64 { return math.Pow(x, y) }
func sqrt(x float64) float64   { return math.Sqrt(x) }
func log(x float64) float64    { return math.Log(x) }

// SynthCIFARConfig parameterizes the CIFAR-10 stand-in generator.
type SynthCIFARConfig struct {
	Classes int // default 10
	H, W    int // default 16×16
	// Noise is the per-pixel Gaussian noise σ added to each instance.
	// Larger values make the task harder. Default 0.35.
	Noise float64
	// Jitter is the amplitude of per-instance pattern perturbations
	// (phase shifts, scale). Default 0.4.
	Jitter float64
}

func (c SynthCIFARConfig) withDefaults() SynthCIFARConfig {
	if c.Classes == 0 {
		c.Classes = 10
	}
	if c.H == 0 {
		c.H = 16
	}
	if c.W == 0 {
		c.W = 16
	}
	if c.Noise == 0 {
		c.Noise = 0.35
	}
	if c.Jitter == 0 {
		c.Jitter = 0.4
	}
	return c
}

// cifarClass holds the fixed per-class prototype parameters.
type cifarClass struct {
	base          [3]float64 // per-channel mean color
	fx, fy, phase [3]float64 // per-channel sinusoid parameters
	blobX, blobY  float64    // blob center in [0,1]
	blobR         float64    // blob radius in [0.15,0.35]
	blobAmp       [3]float64 // blob per-channel amplitude
}

// SynthCIFAR generates n labelled examples of the CIFAR-10 stand-in.
// Class prototypes are derived deterministically from classSeed, and the
// instances from instanceSeed — so every client and the server agree on
// the task while drawing disjoint samples.
func SynthCIFAR(cfg SynthCIFARConfig, n int, classSeed, instanceSeed int64) *Dataset {
	cfg = cfg.withDefaults()
	protos := cifarPrototypes(cfg, classSeed)
	rng := rand.New(rand.NewSource(instanceSeed))
	ds := &Dataset{X: tensor.New(n, 3, cfg.H, cfg.W), Y: make([]int, n), Classes: cfg.Classes}
	stride := 3 * cfg.H * cfg.W
	for i := 0; i < n; i++ {
		y := rng.Intn(cfg.Classes)
		ds.Y[i] = y
		renderCIFAR(ds.X.Data[i*stride:(i+1)*stride], protos[y], cfg, rng)
	}
	return ds
}

func cifarPrototypes(cfg SynthCIFARConfig, seed int64) []cifarClass {
	prng := rand.New(rand.NewSource(seed))
	protos := make([]cifarClass, cfg.Classes)
	for k := range protos {
		p := &protos[k]
		for c := 0; c < 3; c++ {
			p.base[c] = prng.Float64()*1.0 - 0.5
			p.fx[c] = 1 + prng.Float64()*3
			p.fy[c] = 1 + prng.Float64()*3
			p.phase[c] = prng.Float64() * 2 * math.Pi
			p.blobAmp[c] = prng.Float64()*1.6 - 0.8
		}
		p.blobX = 0.2 + prng.Float64()*0.6
		p.blobY = 0.2 + prng.Float64()*0.6
		p.blobR = 0.15 + prng.Float64()*0.2
	}
	return protos
}

// renderCIFAR writes one instance of class prototype p into out (3·H·W).
func renderCIFAR(out []float32, p cifarClass, cfg SynthCIFARConfig, rng *rand.Rand) {
	// Instance-level nuisance parameters.
	dphase := rng.NormFloat64() * cfg.Jitter
	scale := 1 + rng.NormFloat64()*cfg.Jitter*0.25
	dx := rng.NormFloat64() * cfg.Jitter * 0.15
	dy := rng.NormFloat64() * cfg.Jitter * 0.15
	for c := 0; c < 3; c++ {
		plane := out[c*cfg.H*cfg.W : (c+1)*cfg.H*cfg.W]
		for y := 0; y < cfg.H; y++ {
			fy := float64(y)/float64(cfg.H) + dy
			for x := 0; x < cfg.W; x++ {
				fx := float64(x)/float64(cfg.W) + dx
				v := p.base[c]
				v += 0.5 * scale * math.Sin(2*math.Pi*(p.fx[c]*fx+p.fy[c]*fy)+p.phase[c]+dphase)
				ddx, ddy := fx-p.blobX, fy-p.blobY
				v += p.blobAmp[c] * math.Exp(-(ddx*ddx+ddy*ddy)/(2*p.blobR*p.blobR))
				v += rng.NormFloat64() * cfg.Noise
				plane[y*cfg.W+x] = float32(v)
			}
		}
	}
}

// SynthFEMNISTConfig parameterizes the FEMNIST stand-in generator.
type SynthFEMNISTConfig struct {
	Classes int // default 62 (digits + upper + lower, as in LEAF)
	H, W    int // default 28×28
	Noise   float64
	// Writers is the number of distinct writer styles; each example is
	// attributed to a writer, and the LEAF-style partition groups
	// examples by writer. Default 50.
	Writers int
}

func (c SynthFEMNISTConfig) withDefaults() SynthFEMNISTConfig {
	if c.Classes == 0 {
		c.Classes = 62
	}
	if c.H == 0 {
		c.H = 28
	}
	if c.W == 0 {
		c.W = 28
	}
	if c.Noise == 0 {
		c.Noise = 0.2
	}
	if c.Writers == 0 {
		c.Writers = 50
	}
	return c
}

// glyph is a fixed per-class stroke skeleton: a polyline through anchor
// points in the unit square.
type glyph struct {
	pts [][2]float64
}

// writerStyle is the per-writer feature skew: slant, stroke thickness and
// translation — LEAF's natural heterogeneity, synthesized.
type writerStyle struct {
	slant     float64
	thickness float64
	offX      float64
	offY      float64
	contrast  float64
}

// FEMNISTSet bundles the generated dataset with each example's writer id
// so the LEAF partitioner can group by writer.
type FEMNISTSet struct {
	*Dataset
	Writer []int
}

// SynthFEMNIST generates n labelled handwritten-character-like examples
// across cfg.Writers writer styles.
func SynthFEMNIST(cfg SynthFEMNISTConfig, n int, classSeed, instanceSeed int64) *FEMNISTSet {
	cfg = cfg.withDefaults()
	prng := rand.New(rand.NewSource(classSeed))
	glyphs := make([]glyph, cfg.Classes)
	for k := range glyphs {
		np := 3 + prng.Intn(3)
		pts := make([][2]float64, np)
		for i := range pts {
			pts[i] = [2]float64{0.15 + prng.Float64()*0.7, 0.15 + prng.Float64()*0.7}
		}
		glyphs[k] = glyph{pts: pts}
	}
	styles := make([]writerStyle, cfg.Writers)
	for w := range styles {
		styles[w] = writerStyle{
			slant:     prng.NormFloat64() * 0.2,
			thickness: 0.05 + prng.Float64()*0.06,
			offX:      prng.NormFloat64() * 0.05,
			offY:      prng.NormFloat64() * 0.05,
			contrast:  0.7 + prng.Float64()*0.6,
		}
	}

	rng := rand.New(rand.NewSource(instanceSeed))
	set := &FEMNISTSet{
		Dataset: &Dataset{X: tensor.New(n, 1, cfg.H, cfg.W), Y: make([]int, n), Classes: cfg.Classes},
		Writer:  make([]int, n),
	}
	stride := cfg.H * cfg.W
	for i := 0; i < n; i++ {
		y := rng.Intn(cfg.Classes)
		w := rng.Intn(cfg.Writers)
		set.Y[i] = y
		set.Writer[i] = w
		renderGlyph(set.X.Data[i*stride:(i+1)*stride], glyphs[y], styles[w], cfg, rng)
	}
	return set
}

// renderGlyph rasterizes the class polyline under the writer's style:
// each pixel's intensity decays with distance to the nearest stroke
// segment, giving anti-aliased stroke-like images.
func renderGlyph(out []float32, g glyph, s writerStyle, cfg SynthFEMNISTConfig, rng *rand.Rand) {
	jx := rng.NormFloat64() * 0.03
	jy := rng.NormFloat64() * 0.03
	for y := 0; y < cfg.H; y++ {
		fy := float64(y) / float64(cfg.H)
		for x := 0; x < cfg.W; x++ {
			fx := float64(x) / float64(cfg.W)
			// Inverse writer transform: undo slant and offset.
			ux := fx - s.offX - jx - s.slant*(fy-0.5)
			uy := fy - s.offY - jy
			d := distToPolyline(ux, uy, g.pts)
			v := s.contrast * math.Exp(-d*d/(2*s.thickness*s.thickness))
			v += rng.NormFloat64() * cfg.Noise
			out[y*cfg.W+x] = float32(v)
		}
	}
}

// distToPolyline returns the distance from (x,y) to the nearest segment
// of the polyline.
func distToPolyline(x, y float64, pts [][2]float64) float64 {
	best := math.Inf(1)
	for i := 0; i+1 < len(pts); i++ {
		d := distToSegment(x, y, pts[i], pts[i+1])
		if d < best {
			best = d
		}
	}
	return best
}

func distToSegment(x, y float64, a, b [2]float64) float64 {
	vx, vy := b[0]-a[0], b[1]-a[1]
	wx, wy := x-a[0], y-a[1]
	l2 := vx*vx + vy*vy
	t := 0.0
	if l2 > 0 {
		t = (wx*vx + wy*vy) / l2
		if t < 0 {
			t = 0
		} else if t > 1 {
			t = 1
		}
	}
	dx, dy := x-(a[0]+t*vx), y-(a[1]+t*vy)
	return math.Sqrt(dx*dx + dy*dy)
}

// ByWriterPartition groups example indices into numClients clients by
// assigning whole writers to clients round-robin — the LEAF federated
// setting where each client is one (or more) natural writers.
func ByWriterPartition(set *FEMNISTSet, numClients int, rng *rand.Rand) [][]int {
	writers := map[int][]int{}
	for i, w := range set.Writer {
		writers[w] = append(writers[w], i)
	}
	ids := make([]int, 0, len(writers))
	for w := range writers {
		ids = append(ids, w)
	}
	// Map iteration order is random; sort for determinism, then shuffle
	// with the caller's rng.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	parts := make([][]int, numClients)
	for i, w := range ids {
		c := i % numClients
		parts[c] = append(parts[c], writers[w]...)
	}
	return parts
}
