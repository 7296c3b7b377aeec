; copy n words from word 1 to the words after them; word 0 holds n
        li   r7, 0
        lw   r3, 0(r7)
        li   r1, 1
        add  r2, r1, r3
loop:
        lw   r4, (r1)
        sw   r4, (r2)
        addi r1, r1, 1
        addi r2, r2, 1
        subi r3, r3, 1
        bne  r3, r7, loop
        halt
