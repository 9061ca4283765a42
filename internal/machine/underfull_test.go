package machine_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"synpa/internal/apps"
	"synpa/internal/machine"
	"synpa/internal/sched"
)

// underFullDigests pins closed-system runs with fewer applications than
// hardware threads: the SHA-256 of each traced Result's JSON encoding,
// keyed by "smt<level>/<policy>/<apps>". Both machines have eight hardware
// threads (4 SMT2 cores, 2 SMT4 cores), so every run leaves threads idle,
// and runs of fewer apps than cores (Linux) or SMT-level groups (Random)
// leave whole cores idle.
var underFullDigests = map[string]string{
	"smt2/linux/1":  "5253635d59c6701aabe351964a14db4413855c14d1ed9cd157d8124d3e82467a",
	"smt2/linux/2":  "53de97be53654ec1041a31fa421b5d99c6b838133b3081e24d9d6af574804b55",
	"smt2/linux/3":  "c36a4a374f7694f1868745926f1a446a2889c2d935162e7870338ba36efd9347",
	"smt2/linux/4":  "9061aa6248ffa469c88f7f8be86768f2a154e3a35399e4091b37be01f787b7d1",
	"smt2/linux/5":  "47254f8558231c1c7b6981131d9ddc80ac37c729692c16f9f486a787212b4dfc",
	"smt2/linux/6":  "c9eea395fe78f40e1faba342f8c5b2ccc3ee3f3cd2e06c62e9f39332aefaa109",
	"smt2/linux/7":  "c91650d35c017ed924383e87b8f6be661b772cfca3ba0d7359bd3d53e6502dcb",
	"smt2/random/1": "3eaf49939faca51f38876b866897fc9e238b263c8c393e84565e5c03013bda68",
	"smt2/random/2": "38cb2904b877cc5c0db54d39281827da60fa560b54ff496a59dbd198e878a0c4",
	"smt2/random/3": "aceca67fc78e247eb997d2e83e4e0dbeb6d3b448137c475270d8ebaba98637f1",
	"smt2/random/4": "3058644855e8beb721f363b35b87ce5420545c95a9a80578dc491a8e3a662da2",
	"smt2/random/5": "9a344ff9f2aec8bf8d05c36940d262470a19bebc6720bad7a4b241dff3395743",
	"smt2/random/6": "0ede24290fb9762e6522e13a5218299e1bc25b8162fd2e5d1324c2fe6cefa63a",
	"smt2/random/7": "b92b79cb11a0b53fc005f948b579b025a481d8a921beef802112b0f7ed26ea5e",
	"smt4/linux/1":  "5253635d59c6701aabe351964a14db4413855c14d1ed9cd157d8124d3e82467a",
	"smt4/linux/2":  "53de97be53654ec1041a31fa421b5d99c6b838133b3081e24d9d6af574804b55",
	"smt4/linux/3":  "0279de24ae23276cd3526681b311c72c08d8ee926e7d418d836e0662f02cb4a3",
	"smt4/linux/4":  "a400d001f298b3371cbe44a1196dc98c676c8e81048c6c1f96079a224726f191",
	"smt4/linux/5":  "47d45f8158f44f6461653d0f623a0f704332760f0a71a3ba301cd010b1a11826",
	"smt4/linux/6":  "34221b6a241973d3256f44252255f9350f2db2e5820de83ba2da953be5ec02fb",
	"smt4/linux/7":  "2062bea3a35424715547947cc2f84cc2ec89e118955d929cd5e0cd805eddc632",
	"smt4/random/1": "3eaf49939faca51f38876b866897fc9e238b263c8c393e84565e5c03013bda68",
	"smt4/random/2": "9874a80da775435f04d80af0ac00e5927930591c9f99bbf8d4e7808f34a5129c",
	"smt4/random/3": "6989ab76052d670b9f28999ac2b7fcf2f8964e985a79c692e4874e599030e754",
	"smt4/random/4": "ee0fdea895de4d4b30a40b5bf4ed1dcfd89e9051beabe51086aad2d5781ef0ca",
	"smt4/random/5": "62179738dafacc2f4cccd4696139abb49090dd9ac976cdaec1b5ea84f002ce58",
	"smt4/random/6": "72877a1686eafc53b0f2051bfa524199fc063ba0397cb437b4ac74c328817658",
	"smt4/random/7": "6b74472c2bd82da973749bb46809f3d97f05edafff15c716463c7cbe06c67c67",
}

// underFullRun executes one traced closed run of n apps.
func underFullRun(t *testing.T, level, n int, policy machine.Policy) *machine.Result {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.QuantumCycles = 5_000
	cfg.Parallel = false
	cfg.Cores = 8 / level
	cfg.Core.SMTLevel = level
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"mcf", "leela_r", "lbm_r", "gobmk", "cactuBSSN_r", "perlbench", "milc"}
	models := make([]*apps.Model, n)
	targets := make([]uint64, n)
	for i := range models {
		if models[i], err = apps.ByName(names[i]); err != nil {
			t.Fatal(err)
		}
		targets[i] = 20_000 + 15_000*uint64(i)
	}
	res, err := m.Run(models, targets, policy, machine.RunnerOptions{Seed: 5, MaxQuanta: 80, RecordTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunUnderFullDigests pins every under-full closed run bit for bit:
// placements, per-quantum samples and per-app outcomes.
func TestRunUnderFullDigests(t *testing.T) {
	for _, level := range []int{2, 4} {
		for _, pol := range []struct {
			name string
			new  func() machine.Policy
		}{
			{"linux", func() machine.Policy { return sched.Linux{} }},
			{"random", func() machine.Policy { return sched.NewRandom(11) }},
		} {
			for n := 1; n <= 7; n++ {
				key := fmt.Sprintf("smt%d/%s/%d", level, pol.name, n)
				buf, err := json.Marshal(underFullRun(t, level, n, pol.new()))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf)
				got := hex.EncodeToString(sum[:])
				if want := underFullDigests[key]; got != want {
					t.Errorf("%s: digest %s, want %s", key, got, want)
				}
			}
		}
	}
}
