package sim

import (
	"fmt"
	"testing"

	"repro/internal/workload"
)

// TestLISAVillaGolden pins LISA-VILLA's end-to-end Result on two runs
// long enough to exercise every part of its cache: com at 6M
// instructions (LRU evictions and dirty write-backs over the victim's
// own hop distance) and the eight-core mix-100-0 at 1.5M instructions
// per core on two channels, where enough misses land in each bank for
// the hot-row counts to decay (the result moves if the decay period
// does), with tens of thousands of evictions and some dirty
// write-backs. The values were recorded with LISA-VILLA as a separate
// whole-row tag store and must not move while it is expressed as a
// FIGCache configuration.
func TestLISAVillaGolden(t *testing.T) {
	mix := lisaGoldenConfig(eightCoreMix(t, "mix-100-0"), 1_500_000)
	mix.Channels = 2
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{lisaGoldenConfig(smallMix(t, "com"), 6_000_000), lisaGoldenCom},
		{mix, lisaGoldenMix},
	} {
		got := fmt.Sprintf("%+v", runWith(t, c.cfg, false))
		if got != c.want {
			t.Errorf("%s moved; got:\n%s\nwant:\n%s", c.cfg.Describe(), got, c.want)
		}
	}
}

func lisaGoldenConfig(mix workload.Mix, insts int64) Config {
	cfg := DefaultConfig(LISAVilla, mix)
	cfg.TargetInsts = insts
	return cfg
}

const lisaGoldenCom = `{Preset:LISA-VILLA Workload:com Cycles:4230184 Cores:[{App:com IPC:1.4183783538442662 Insts:6000001 FinishedAt:4230183}] DRAM:{ACT:9474 ACTFast:48164 PRE:48239 RD:70375 WR:10035 REF:169 RELOC:0 RBMHops:18949 RowHits:80410 RowMisses:57638 RowConf:51651 RelocBusy:236901} CacheHits:61625 CacheMisses:18795 Inserted:9388 L1Accesses:133271 L2Accesses:159634 LLCAccesses:156081 LLCMisses:70376 MemReads:70375 MemWrites:10035 AvgReadLatencyNS:49.42259325044405 TotalInsts:6000001}`

const lisaGoldenMix = `{Preset:LISA-VILLA Workload:mix-100-0 Cycles:2505213 Cores:[{App:zeusmp IPC:0.7623190762725647 Insts:2039714 FinishedAt:1967680} {App:leslie3d IPC:0.8130755558591037 Insts:2241617 FinishedAt:1844847} {App:mcf IPC:0.5987517224091214 Insts:1500000 FinishedAt:2505212} {App:GemsFDTD IPC:0.783236647120561 Insts:2121006 FinishedAt:1915130} {App:libquantum IPC:0.7545389289269602 Insts:2050998 FinishedAt:1987969} {App:bwaves IPC:0.8321142859044832 Insts:2259614 FinishedAt:1802637} {App:lbm IPC:0.71739613897398 Insts:1944287 FinishedAt:2090895} {App:com IPC:0.6873557698476269 Insts:1788485 FinishedAt:2182276}] DRAM:{ACT:63319 ACTFast:45215 PRE:61515 RD:223122 WR:2132 REF:200 RELOC:0 RBMHops:94119 RowHits:225254 RowMisses:108534 RowConf:91714 RelocBusy:1176471} CacheHits:60694 CacheMisses:164621 Inserted:47004 L1Accesses:306252 L2Accesses:386105 LLCAccesses:373498 LLCMisses:223144 MemReads:223122 MemWrites:2132 AvgReadLatencyNS:101.07480996943376 TotalInsts:15945721}`
