; count the values 0..16 of the n words at word 1 into 16 counters
; after them; word 0 holds n. Data-dependent store addresses alias
        li   r7, 0
        lw   r2, 0(r7)      ; remaining
        li   r1, 1          ; &data
        add  r3, r1, r2     ; &counts
loop:
        lw   r4, (r1)
        add  r4, r4, r3     ; &counts[value]
        lw   r5, (r4)
        addi r5, r5, 1
        sw   r5, (r4)
        addi r1, r1, 1
        subi r2, r2, 1
        bne  r2, r7, loop
        halt
