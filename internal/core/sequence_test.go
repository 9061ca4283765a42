package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"synpa/internal/machine"
	"synpa/internal/pmu"
	"synpa/internal/predcache"
	"synpa/internal/xrand"
)

// seqCase is one 25-quantum PlaceR sequence: a machine shape, policy
// options, a cache mode, and whether the live set churns (departures and
// Unplaced arrivals with stable AppIDs) or stays closed.
type seqCase struct {
	level, cores, apps int
	opt                PolicyOptions
	shared, churn      bool
	digest             string
}

func (c seqCase) name() string {
	s := fmt.Sprintf("L%d/c%d/n%d", c.level, c.cores, c.apps)
	if c.opt.Matcher != MatcherBlossom {
		s += "/" + c.opt.Matcher.String()
	}
	if c.opt.Hysteresis < 0 {
		s += "/nohyst"
	}
	if c.opt.DisableInversion {
		s += "/noinv"
	}
	if c.shared {
		s += "/shared"
	}
	if c.churn {
		s += "/churn"
	}
	return s
}

// seqSample draws one quantum's PMU delta for an application profile: a
// frontend-heavy or backend-heavy stall split with per-quantum noise.
func seqSample(rng *xrand.RNG, frontend bool) pmu.Counters {
	insts := 3_000 + uint64(rng.Intn(4_000))
	major := 5_000 + uint64(rng.Intn(3_000))
	minor := 300 + uint64(rng.Intn(1_200))
	if frontend {
		return sampleWith(10_000, insts, major, minor)
	}
	return sampleWith(10_000, insts, minor, major)
}

// runSequence drives 25 PlaceR decisions through one arena, feeding each
// placement back as the next quantum's Prev, and returns the SHA-256 of
// every placement and every LastSTEstimates bit pattern. Each application
// keeps a frontend/backend profile that flips now and then, so the
// sequence sees both hysteresis holds and migrations.
func runSequence(t *testing.T, c seqCase) string {
	t.Helper()
	p := MustPolicy(PaperCoefficients(), c.opt)
	if c.shared {
		p.SetSharedCache(predcache.NewShared(predcache.Options{}, 4))
	}
	a := p.NewArena()
	rng := xrand.New(uint64(10000*int(c.opt.Matcher) + 1000*c.level + 100*c.cores + c.apps))
	capacity := c.cores * c.level

	ids := make([]int, c.apps)
	profile := map[int]bool{}
	for i := range ids {
		ids[i] = i
		profile[i] = rng.Intn(2) == 0
	}
	nextID := len(ids)
	var prev machine.Placement
	h := sha256.New()
	var buf []byte
	for q := 0; q < 25; q++ {
		st := &machine.QuantumState{
			Quantum: q, NumCores: c.cores, DispatchWidth: 4, SMTLevel: c.level,
		}
		if q > 0 {
			if c.churn && len(ids) > 1 && rng.Float64() < 0.25 {
				k := rng.Intn(len(ids)) // departure: compact the live set
				ids = append(ids[:k], ids[k+1:]...)
				prev = append(prev[:k], prev[k+1:]...)
			}
			arrived := -1
			if c.churn && len(ids) < capacity && rng.Float64() < 0.3 {
				ids = append(ids, nextID)
				profile[nextID] = rng.Intn(2) == 0
				prev = append(prev, machine.Unplaced)
				arrived = nextID
				nextID++
			}
			st.Prev = prev
			st.Samples = make([]pmu.Counters, len(ids))
			for i, id := range ids {
				if rng.Float64() < 0.15 {
					profile[id] = !profile[id]
				}
				if id != arrived { // a fresh arrival has not run yet
					st.Samples[i] = seqSample(rng, profile[id])
				}
			}
		}
		st.NumApps = len(ids)
		if c.churn {
			st.AppIDs = append([]int(nil), ids...)
		}
		place := p.PlaceR(a, st)
		if err := place.Validate(c.cores, c.level); err != nil || len(place) != st.NumApps {
			t.Fatalf("quantum %d: placement %v for %d apps: %v", q, place, st.NumApps, err)
		}
		buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(q))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(place)))
		for _, core := range place {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(core)))
		}
		est := a.LastSTEstimates()
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(est)))
		for _, row := range est {
			for _, v := range row {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
		h.Write(buf)
		prev = place
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlaceRSequenceDigests pins the bits of PlaceR's decisions — every
// placement and every ST estimate — over feedback sequences spanning SMT
// levels 1–4, 2–4 cores, odd live counts, partial occupancy with Unplaced
// arrivals, hysteresis on and off, the inversion ablation, the three SMT2
// matchers, and private and shared prediction caches. Any change to the
// placement pipeline that moves a single bit fails here.
func TestPlaceRSequenceDigests(t *testing.T) {
	noHyst := PolicyOptions{Hysteresis: -1}
	noInv := PolicyOptions{DisableInversion: true}
	brute := PolicyOptions{Matcher: MatcherBruteForce}
	greedy := PolicyOptions{Matcher: MatcherGreedy}
	cases := []seqCase{
		{level: 1, cores: 3, apps: 3,
			digest: "dd8542716d7829ae85fdbcb8c34043431c3d2db0402522f36d8b4e8d80bcd447"},
		{level: 1, cores: 4, apps: 2, churn: true,
			digest: "885ee788d361ca682b478feb8f4063000827f9148831f1073b3fcd90c6899ca8"},
		{level: 2, cores: 2, apps: 3,
			digest: "8a07929a46ea54cc274e8f181ad0ad944ae73bda3ab25fef08da84577b9e557c"},
		{level: 2, cores: 2, apps: 4,
			digest: "7ff10f118e19a21a4962a13f55e87a50e495f7daf04f921d3d9ce7af490c3d66"},
		{level: 2, cores: 3, apps: 5,
			digest: "8b4f4b9f17feec4e9e10350e23c494f4b088a430b793967a7219128424d7c45d"},
		{level: 2, cores: 4, apps: 7,
			digest: "141c98fbc0cfbedcaad12ab2a1676312c4a1a60493681797839b53ff5861c485"},
		{level: 2, cores: 4, apps: 8,
			digest: "8e738a12118360abaa8aed05fd8bb84a746b6a90372282fc7472d448bb5d58c4"},
		{level: 2, cores: 4, apps: 8, opt: noHyst,
			digest: "caddf96fb06ebc6575dc2c6c7fa4046d5f9710e605d23e4b19279da4f4a06568"},
		{level: 2, cores: 4, apps: 7, opt: noInv,
			digest: "ff9f78e6b2dec9935d07921cbda327a9f4a6244edd40b4262554994114062e01"},
		{level: 2, cores: 4, apps: 8, opt: brute,
			digest: "edd5d696508c475d5db25c79e5af588713836304224145d567973bb1ce7b6117"},
		{level: 2, cores: 3, apps: 5, opt: brute,
			digest: "8369ac30325449e2d8a919497d7de0887c30df5da66d9014b2c5c335601c717a"},
		{level: 2, cores: 4, apps: 8, opt: greedy,
			digest: "307e9d2e3b704354783fe6b21d3895dbb449cdd76ac4593c289b9aba3e7fbc1a"},
		{level: 2, cores: 3, apps: 5, opt: greedy,
			digest: "af00e065795bf3e7517534f4245601629c01eca6af5d968b04b2656a01f88be9"},
		{level: 2, cores: 4, apps: 8, shared: true,
			digest: "8e738a12118360abaa8aed05fd8bb84a746b6a90372282fc7472d448bb5d58c4"},
		{level: 2, cores: 4, apps: 5, churn: true,
			digest: "b3acbb602f275ee68f09169c1ab456dd1c57621cdfb93b09537ea7133bbdb811"},
		{level: 2, cores: 3, apps: 4, churn: true, shared: true,
			digest: "09bc309b0b1df8ab96e0742470957273dd9a426ce5d8632489524ec5a98a62d5"},
		{level: 3, cores: 2, apps: 5,
			digest: "4f1d5902590082221d5fc892e363062ac9788090ac185ad4134acb4cf6d10911"},
		{level: 3, cores: 3, apps: 7,
			digest: "a16d482800bcf51f0e72fa61e1d14022ba8dd7203355a868104bd6820a2aa552"},
		{level: 3, cores: 3, apps: 9, opt: noHyst,
			digest: "406cb02228e82a5d207f3c8ef8fa36f2ee3dce9723f140ed53fcb637cd1eeebc"},
		{level: 3, cores: 3, apps: 5, churn: true,
			digest: "c656886c864a89a48c1acc38e5b029e908730b16e10d8fa8138e975bfd63786a"},
		{level: 3, cores: 3, apps: 7, shared: true,
			digest: "a16d482800bcf51f0e72fa61e1d14022ba8dd7203355a868104bd6820a2aa552"},
		{level: 4, cores: 2, apps: 7,
			digest: "de643fc29d04345ae02cafdda2630b2571aa6235491b179f629a1cd5c243bf32"},
		{level: 4, cores: 2, apps: 8,
			digest: "e713ad0d11bc38faa17c2a2b599c54f7bc746aec2a6a1a93d2b3e425d3153fc3"},
		{level: 4, cores: 3, apps: 9,
			digest: "f008353d62740c6fc538c1b99049236dfbe903c740644773d68b5fd960807320"},
		{level: 4, cores: 4, apps: 5,
			digest: "c500ab1b3d5ccc00b900b5be2ebdd4acf79e966a2f7f4f7ebd27d2caa8c5d570"},
		{level: 4, cores: 4, apps: 14,
			digest: "24db9af1af9bb0d72c561c64e317939cb440a521b7bd20d71a9a2517532ebf31"},
		{level: 4, cores: 2, apps: 8, opt: noHyst,
			digest: "620b426bf141cd6990762b90e88d3dcc86c5201795be81b83bafd64e99905189"},
		{level: 4, cores: 3, apps: 9, opt: noInv,
			digest: "d2788b1acbd7673129237efcd89e412d0ee66bb7e8a8d16cc3e41dce40dbfaa2"},
		{level: 4, cores: 3, apps: 6, churn: true,
			digest: "2521f2cb6085465fca27d0195b39da6abe3daab83fd064bf4d793f35b4bb18d3"},
		{level: 4, cores: 3, apps: 9, shared: true,
			digest: "f008353d62740c6fc538c1b99049236dfbe903c740644773d68b5fd960807320"},
	}
	for _, c := range cases {
		t.Run(c.name(), func(t *testing.T) {
			if got := runSequence(t, c); got != c.digest {
				t.Errorf("digest %s, want %s", got, c.digest)
			}
		})
	}
}
