; follow a cyclic linked list for n steps starting at word 1; word 0
; holds n and every node word holds the address of the next node.
; A serial load-to-load chain
        li   r7, 0
        lw   r2, 0(r7)
        li   r1, 1
loop:
        lw   r1, (r1)
        subi r2, r2, 1
        bne  r2, r7, loop
        halt
