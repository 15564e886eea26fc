package main

// fig3Digests records the digest of the 36 fig3 artifacts (see
// fig3.digest) for sweep seeds 1, 2, ... as this commit produces them.
// A pass whose artifacts hash differently computed different results.
var fig3Digests = []string{
	"853fe4ebd1adf157650e04b4cdda74c5dce14f4c46cf96cf9922cdd24986d3d9", // 1
	"19a3c7ac4dbaa7df6bd6d94aaac089d8b64b43dac3fc6afb920cb9c097ac4843", // 2
	"99e823e111432aa51df5aaab0e00648a47f78e2493b509da2d2b41a4edff32e0", // 3
	"0bbdf4693b9eff71d1311303516e9b860b4857021aeeb77225072e8184f2bd79", // 4
	"af6983e4a86e826f4f5b3e766a1d6dc50c0857ec99bf04e4736d8f8888cce9a6", // 5
	"8b0fe0a9c5f2f4d656169d7b170fe818e80f2c3cbb3f3123cf30cdc82f9cd539", // 6
	"42e94dfe3728c75b4c0c06bc10912444defbbce607339d7a2062b159ff05bc17", // 7
	"8a2a71f7b49f6a10e57137a2b22c73afac870983c9ec639cb2aa80e6eda977d1", // 8
	"9a2e5d2630aff33a84453168b283963ef39da07a484d67f26c06028eedeca804", // 9
	"ef0cdf86bc81ac2e9c3332fcb24a04998fc9d7bac6b7e4528e4e56f7d1e189b8", // 10
	"51dba9370ccf923e0d22e1167fc35fef78856b6954a42e30feec3357bd0e8589", // 11
	"d7c85882e8f1aa1d0395cbc82b7f3e4f1ffd9f8f4a4a95d6eef615fdeed74371", // 12
	"dd8a634f26386cdd0e9282f36a89325326c808c1d5e9bbb905b044fc8c9f53a2", // 13
	"df6b1d3a402198440a4b6022abaac47c2bc996d3144c0d2c3d5b8ee662c3c81d", // 14
	"73dbf11929b12c298710054a4cb055b3e2bd6b24bc5cc18d4815e147f339d891", // 15
	"70041945dae87be5ea110218fd43e10eb69db177c1f90594db47cf6747fa163f", // 16
}
