; bubble sort the n words at word 1, ascending, in place; word 0 holds n.
; Data-dependent branches stress misprediction recovery
        li   r7, 0
        lw   r3, 0(r7)      ; inner limit: last pair starts at word n-1
        subi r1, r3, 1      ; passes remaining
        beq  r1, r7, done
outer:
        li   r2, 1          ; index
inner:
        lw   r4, (r2)
        lw   r5, 1(r2)
        bltu r4, r5, noswap
        sw   r5, (r2)
        sw   r4, 1(r2)
noswap:
        addi r2, r2, 1
        bne  r2, r3, inner
        subi r1, r1, 1
        bne  r1, r7, outer
done:
        halt
