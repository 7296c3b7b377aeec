; CRC-style rolling checksum of the n words at word 1 into r3, where word
; 0 holds n: shift, xor and a data-dependent feedback branch on a serial
; chain
        li   r7, 0
        lw   r2, 0(r7)
        li   r1, 1
        li   r3, -1         ; acc = 0xFFFFFFFF
        li   r6, 0x04c1     ; truncated polynomial
loop:
        lw   r4, (r1)
        xor  r3, r3, r4
        srli r5, r3, 1
        andi r4, r3, 1
        beq  r4, r7, nofb
        xor  r5, r5, r6
nofb:
        add  r3, r5, r7
        addi r1, r1, 1
        subi r2, r2, 1
        bne  r2, r7, loop
        halt
