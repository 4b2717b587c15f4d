// Attack detection: exercise the paper's threat model (Section 4.1)
// against a recovered memory image. An adversary who can scan and tamper
// with the NVM module mounts spoofing, relocation, targeted-replay and
// WPQ-drain-image attacks; every one must be detected by the MAC /
// Merkle-tree machinery at read or recovery time.
package main

import (
	"fmt"
	"log"

	"dolos/internal/attack"
	"dolos/internal/crypt"
	"dolos/internal/layout"
	"dolos/internal/masu"
	"dolos/internal/misu"
	"dolos/internal/nvm"
)

func main() {
	lay := layout.Small()
	var aesKey, macKey [16]byte
	copy(aesKey[:], "attck-aes-key-16")
	copy(macKey[:], "attck-mac-key-16")
	eng := crypt.NewEngine(aesKey, macKey)

	dev := nvm.NewDevice(nil, lay.DeviceSize, 0)
	ma := masu.New(masu.BMTEager, eng, dev, lay, 0)

	// Persist a working set.
	var p [64]byte
	for i := uint64(0); i < 16; i++ {
		for j := range p {
			p[j] = byte(i + uint64(j))
		}
		ma.ProcessWrite(0x1000+i*64, p, -1)
	}
	fmt.Println("victim state: 16 lines persisted under counter-mode encryption + BMT")

	adv := attack.New(dev, 1337)

	check := func(name string, tamper func(), read func() error) {
		tamper()
		if err := read(); err != nil {
			fmt.Printf("  %-28s DETECTED: %v\n", name, err)
		} else {
			log.Fatalf("%s went undetected", name)
		}
	}

	fmt.Println("\nattacks on the data region (detected at read):")
	check("spoof (overwrite line)",
		func() { adv.Spoof(0x1000, 64) },
		func() error { _, _, err := ma.ReadLine(0x1000); return err })

	check("spoof (single bit flip)",
		func() { adv.FlipBit(0x1040, 5) },
		func() error { _, _, err := ma.ReadLine(0x1040); return err })

	check("relocation (swap two lines)",
		func() { adv.Relocate(0x1080, 0x10C0) },
		func() error { _, _, err := ma.ReadLine(0x1080); return err })

	check("targeted replay (old ciphertext)",
		func() {
			adv.Snapshot("old")
			var q [64]byte
			q[0] = 0xFE
			ma.ProcessWrite(0x1100, q, -1) // counter advances
			if err := adv.ReplayRange("old", 0x1100, 64); err != nil {
				log.Fatal(err)
			}
		},
		func() error { _, _, err := ma.ReadLine(0x1100); return err })

	// WPQ drain-image attack: tamper the ADR-flushed queue before boot.
	fmt.Println("\nattack on the drained WPQ image (detected at recovery):")
	mi := misu.New(misu.PartialWPQ, eng, dev, lay.DrainBase, 13)
	var w [64]byte
	w[0] = 0x42
	mi.Protect(0x2000, &w)
	mi.Drain()
	adv.Spoof(lay.DrainBase+8+8, 4) // inside slot 0's ciphertext
	if _, err := mi.Recover(); err != nil {
		fmt.Printf("  %-28s DETECTED: %v\n", "WPQ image tamper", err)
	} else {
		log.Fatal("WPQ image tamper went undetected")
	}

	fmt.Println("\nadversary log:")
	for _, l := range adv.Log() {
		fmt.Printf("  %s\n", l)
	}
}
